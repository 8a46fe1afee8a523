(* The three workloads. Each is generated from the seed before any
   request is sent: the input files the server loads, a warm-up list,
   and the fixed request sequence of the timed load. Every request
   carries its expected answer, computed in-process by [Eval.run] over
   an uncached selector ([Engine.run] per collection graph) — an
   evaluation route independent of the service's caches. *)

open Gql_graph
module Ast = Gql_core.Ast
module Eval = Gql_core.Eval
module Gql = Gql_core.Gql
module Algebra = Gql_core.Algebra
module Matched = Gql_core.Matched
module Budget = Gql_matcher.Budget
module Engine = Gql_matcher.Engine
module Search = Gql_matcher.Search
module Rpq = Gql_matcher.Rpq
module Flat_pattern = Gql_matcher.Flat_pattern
module Rng = Gql_datasets.Rng
module Queries = Gql_datasets.Queries
module Store = Gql_storage.Store

type kind = Read | View_read | Write | Ddl

type request = {
  src : string;
  kind : kind;
  expect : string list;  (* sorted wire renderings of the returned graphs *)
  writes : int;  (* DML statements the server must report applying *)
  wait : bool;  (* sent with wait_watermark *)
}

type t = {
  name : string;
  doc_args : string list;  (* gqlsh --doc NAME=FILE, relative to the run dir *)
  stores : (string * string) list;
      (* (live store, pristine copy): restored before every server start *)
  setups : int;  (* server starts per end-to-end run; setup_s is their median *)
  warmup : request list;
  load : request array;
  sizes : string;  (* one line for the log *)
}

let names = [ "ppi_cold"; "chem_hot"; "chem_rw" ]

(* --- the oracle ----------------------------------------------------------- *)

type indexes = Graph.t -> (Gql_index.Label_index.t * Gql_index.Profile_index.t) option

let selector ?(indexes : indexes = fun _ -> None) ?limit ~budget : Eval.selector =
 fun ~exhaustive ~patterns entries ->
  let stopped = ref Budget.Exhausted in
  let out =
    List.concat_map
      (fun (p : Rpq.pattern) ->
        if p.Rpq.segments <> [] then failwith "oracle: path segments unsupported";
        List.concat_map
          (fun e ->
            let g = Algebra.underlying e in
            let label_index, profile_index =
              match indexes g with
              | Some (li, pi) -> (Some li, Some pi)
              | None -> (None, None)
            in
            let o =
              (Engine.run ~exhaustive ?limit ~budget ?label_index ?profile_index
                 p.Rpq.core g)
                .Engine.outcome
            in
            (match o.Search.stopped with
            | Budget.Exhausted | Budget.Hit_limit -> ()
            | r -> stopped := Budget.worst !stopped r);
            List.map
              (fun phi -> Algebra.M (Matched.make p.Rpq.core g phi))
              o.Search.mappings)
          entries)
      patterns
  in
  (out, !stopped)

let evaluate ?indexes ?limit ?(budget = Budget.unlimited) ?writer ~docs src =
  Eval.run ~docs ~budget
    ~selector:(selector ?indexes ?limit ~budget)
    ?writer (Gql.parse_program src)

let rendered r = List.sort String.compare (Gql_exec.Server.render_graphs r)

let checked ?indexes ~kind ~wait ~docs src =
  let r = evaluate ?indexes ~docs src in
  if r.Eval.stopped <> Budget.Exhausted then
    failwith ("oracle: request did not run to completion: " ^ src);
  { src; kind; expect = rendered r; writes = r.Eval.writes; wait }

(* --- program text ----------------------------------------------------------- *)

(* [for graph P {...} exhaustive in SOURCE return graph {...};] — the
   returned graph is the matched subgraph, so every answer renders the
   data nodes it matched. *)
let selection ~source (nodes, edges) =
  let b = Buffer.create 256 in
  Buffer.add_string b "for graph P { ";
  List.iter
    (fun (v, label) ->
      match label with
      | Some l -> Printf.bprintf b "node %s where label=\"%s\"; " v l
      | None -> Printf.bprintf b "node %s; " v)
    nodes;
  List.iteri (fun i (x, y) -> Printf.bprintf b "edge e%d (%s, %s); " i x y) edges;
  Printf.bprintf b "} exhaustive in %s return graph { node %s; " source
    (String.concat ", " (List.map (fun (v, _) -> "P." ^ v) nodes));
  List.iteri
    (fun i (x, y) -> Printf.bprintf b "edge f%d (P.%s, P.%s); " i x y)
    edges;
  Buffer.add_string b "};";
  Buffer.contents b

let pattern_shape p =
  let v u = Printf.sprintf "v%d" u in
  ( List.init (Flat_pattern.size p) (fun u -> (v u, Flat_pattern.required_label p u)),
    List.rev
      (Graph.fold_edges p.Flat_pattern.structure ~init:[] ~f:(fun acc _ e ->
           (v e.Graph.src, v e.Graph.dst) :: acc)) )

(* [List.init] with the calls made in index order — the generators
   thread a random stream and oracle state through them. *)
let in_order n f =
  let acc = ref [] in
  for i = 0 to n - 1 do
    acc := f i :: !acc
  done;
  List.rev !acc

(* Indices 0..n-1 in equal shares: each cycle of n is a fresh seeded
   permutation. *)
let cycler rng n =
  let cycle = Array.init n Fun.id and i = ref 0 in
  fun () ->
    if !i mod n = 0 then Rng.shuffle rng cycle;
    let k = cycle.(!i mod n) in
    incr i;
    k

(* --- the side store: a write trickle on the read workloads ---------------- *)

(* 64 eight-node chains. The read workloads send a share of their
   requests as DML into this store, so every workload measures the write
   path and durability; no read touches it, so its writes leave the read
   side's cached plans alone (epochs are per graph). *)
let log_graphs = 64

let write_log_store path =
  let st = Store.create path in
  for i = 0 to log_graphs - 1 do
    let b = Graph.Builder.create ~name:(Printf.sprintf "g%d" i) () in
    let ids =
      Array.init 8 (fun j ->
          Graph.Builder.add_node b ~name:(Printf.sprintf "n%d" j)
            (Tuple.make [ ("label", Value.Str "L") ]))
    in
    for j = 0 to 6 do
      ignore (Graph.Builder.add_edge b ids.(j) ids.(j + 1))
    done;
    ignore (Store.add_graph st (Graph.Builder.build b))
  done;
  Store.close st

(* One write request is a batch of 20 DML statements on one chain:
   eight inserted nodes with their edges and four relabels, about 2 ms
   of work. A lone statement costs about 0.1 ms, and at that size the
   host's wake-up jitter would dominate its latency. *)
let log_write rng ~k =
  let g = Rng.int rng log_graphs in
  let n () = Rng.int rng 8 in
  let insert i =
    Printf.sprintf
      {|insert node w%d_%d <label="W"> into doc("LOG").g%d; insert edge (n%d, w%d_%d) into doc("LOG").g%d;|}
      k i g (n ()) k i g
  in
  let update _ =
    Printf.sprintf {|update node doc("LOG").g%d.n%d set <label="M%d">;|} g (n ()) (Rng.int rng 4)
  in
  let inserts = List.init 8 insert in
  let updates = List.init 4 update in
  { src = String.concat " " (inserts @ updates); kind = Write; expect = []; writes = 20; wait = false }

(* Interleave: after every [reads_per_write] reads, one side-store
   write. *)
let with_log_writes rng ~reads_per_write reads =
  let i = ref 0 and k = ref 0 in
  List.concat_map
    (fun r ->
      incr i;
      if !i mod reads_per_write = 0 then begin
        incr k;
        [ r; log_write rng ~k:!k ]
      end
      else [ r ])
    reads

(* --- ppi_cold -------------------------------------------------------------- *)

(* Never-repeated exhaustive selections on the PPI network, kept only
   when the library counts 1-100 answers (the paper's low-hits group,
   and a bound on what any one request can make the server hold). The
   count stops at 101 matches or 20,000 search steps, so a rejected
   candidate costs little. *)
let ppi_patterns ~graph ~indexes ~rng ~count ~seen =
  let li = fst indexes in
  let labels = Queries.top_labels li 40 in
  let weights = Queries.label_weights li labels in
  let docs = [ ("PPI", [ graph ]) ] in
  let idx g = if g == graph then Some indexes else None in
  let out = ref [] and n = ref 0 and attempts = ref 0 in
  while !n < count do
    incr attempts;
    if !attempts > (100 * count) + 1000 then
      failwith "ppi_cold: the pattern generator found too few low-hit patterns";
    let size = 3 + Rng.int rng 5 in
    let p =
      if Rng.bool rng then Queries.connected_subgraph rng graph ~size
      else Queries.clique ~weights rng ~labels ~size
    in
    let src = selection ~source:{|doc("PPI")|} (pattern_shape p) in
    if not (Hashtbl.mem seen src) then begin
      Hashtbl.add seen src ();
      let budget = Budget.make ~max_visited:20_000 () in
      let r = evaluate ~indexes:idx ~limit:101 ~budget ~docs src in
      let answers = List.length (Eval.returned r) in
      if r.Eval.stopped = Budget.Exhausted && answers >= 1 && answers <= 100
      then begin
        out := { src; kind = Read; expect = rendered r; writes = 0; wait = false } :: !out;
        incr n
      end
    end
  done;
  List.rev !out

let ppi_cold ~seed ~requests =
  let graph = Gql_datasets.Ppi.generate () in
  Common.write_file "ppi.gql" (Format.asprintf "%a@." Graph.pp graph);
  write_log_store "log.pristine.store";
  let indexes =
    (Gql_index.Label_index.build graph, Gql_index.Profile_index.build ~r:1 graph)
  in
  let seen = Hashtbl.create 4096 in
  let rng = Rng.create seed in
  let warm_rng = Rng.split rng in
  let warmup = ppi_patterns ~graph ~indexes ~rng:warm_rng ~count:8 ~seen in
  (* 1 request in 10 is a write *)
  let reads = requests - (requests / 10) in
  let load =
    with_log_writes rng ~reads_per_write:9
      (ppi_patterns ~graph ~indexes ~rng ~count:reads ~seen)
  in
  {
    name = "ppi_cold";
    doc_args = [ "PPI=ppi.gql"; "LOG=log.store" ];
    stores = [ ("log.store", "log.pristine.store") ];
    (* each start parses the 0.5 MB text doc, about 3 s *)
    setups = 3;
    warmup = warmup @ [ log_write warm_rng ~k:0 ];
    load = Array.of_list load;
    sizes =
      Printf.sprintf "PPI %d nodes %d edges; %d distinct patterns"
        (Graph.n_nodes graph) (Graph.n_edges graph) (Hashtbl.length seen);
  }

(* --- the chem collection ---------------------------------------------------- *)

let n_compounds = 500

(* Chem compounds with named atoms ([a0], [a1], ...), so DML statements
   can address them. *)
let compounds () =
  Gql_datasets.Chem.generate ~seed:2008 ~n_compounds ()
  |> List.map (fun g ->
         let b = Graph.Builder.create ?name:(Graph.name g) ~tuple:(Graph.tuple g) () in
         Graph.iter_nodes g ~f:(fun v ->
             ignore
               (Graph.Builder.add_node b ~name:(Printf.sprintf "a%d" v)
                  (Graph.node_tuple g v)));
         Graph.iter_edges g ~f:(fun _ e ->
             ignore
               (Graph.Builder.add_edge b ~tuple:e.Graph.etuple e.Graph.src
                  e.Graph.dst));
         Graph.Builder.build b)

let write_store path graphs =
  let st = Store.create path in
  List.iter (fun g -> ignore (Store.add_graph st g)) graphs;
  Store.close st

(* Collection-scanning templates of 2-4 nodes over C, N, O and S. With
   500 compounds, 5 x 500 = 2,500 per-graph plans: under the plan
   table's 4,096-entry reset threshold, so the working set fits. Reads
   cycle through the templates in equal shares; an odd count puts the
   read median inside one template's latency band rather than on the
   edge between two. *)
let chem_templates =
  [|
    ([ ("a", Some "C"); ("b", Some "N") ], [ ("a", "b") ]);
    ([ ("a", Some "C"); ("b", Some "O") ], [ ("a", "b") ]);
    ([ ("a", Some "S"); ("b", None); ("c", Some "O") ], [ ("a", "b"); ("b", "c") ]);
    ([ ("a", Some "N"); ("b", Some "C"); ("c", Some "C") ], [ ("a", "b"); ("b", "c") ]);
    ( [ ("a", Some "C"); ("b", Some "C"); ("c", Some "O"); ("d", Some "C") ],
      [ ("a", "b"); ("b", "c"); ("c", "d") ] );
  |]

let chem_source = {|doc("CHEM")|}

let chem_hot ~seed ~requests =
  let graphs = compounds () in
  write_store "chem.pristine.store" graphs;
  write_log_store "log.pristine.store";
  let docs = [ ("CHEM", graphs) ] in
  let templates =
    Array.map
      (fun shape ->
        checked ~kind:Read ~wait:false ~docs (selection ~source:chem_source shape))
      chem_templates
  in
  let rng = Rng.create seed in
  let nt = Array.length templates in
  (* 1 request in 3 is a write: writes are short next to these reads,
     so their tail needs many samples to hold still *)
  let reads = requests - (requests / 3) in
  let warmup = Array.to_list templates @ [ log_write rng ~k:0 ] in
  let next = cycler rng nt in
  let load =
    with_log_writes rng ~reads_per_write:2
      (in_order reads (fun _ -> templates.(next ())))
  in
  {
    name = "chem_hot";
    doc_args = [ "CHEM=chem.store"; "LOG=log.store" ];
    stores = [ ("chem.store", "chem.pristine.store"); ("log.store", "log.pristine.store") ];
    setups = 7;
    warmup;
    load = Array.of_list load;
    sizes =
      Printf.sprintf "%d compounds x %d templates, %d-%d answers per read"
        n_compounds nt
        (Array.fold_left (fun m r -> min m (List.length r.expect)) max_int templates)
        (Array.fold_left (fun m r -> max m (List.length r.expect)) 0 templates);
  }

(* --- chem_rw ----------------------------------------------------------------- *)

let view_def =
  selection ~source:chem_source
    ([ ("a", Some "S"); ("b", Some "O") ], [ ("a", "b") ])

let create_view = "create materialized view hot as " ^ view_def

let view_templates =
  [|
    ([ ("a", Some "S"); ("b", Some "O") ], [ ("a", "b") ]);
    ([ ("a", None); ("b", None) ], [ ("a", "b") ]);
  |]

(* The chem_rw oracle replays the sequence once through [Eval.run].
   Selections and the view are per-graph (a [return] collection is the
   union of its per-graph results), so it memoizes results per
   (template, collection position) and recomputes only the positions a
   write touched. *)
type rw_oracle = {
  docs : Graph.t array;
  sel : (int * int, string list) Hashtbl.t;
  view : (int, Graph.t list) Hashtbl.t;
  vread : (int * int, string list) Hashtbl.t;
}

let one_graph g = [ ("CHEM", [ g ]) ]

let rw_view o pos =
  match Hashtbl.find_opt o.view pos with
  | Some gs -> gs
  | None ->
    let gs = Eval.returned (evaluate ~docs:(one_graph o.docs.(pos)) view_def) in
    Hashtbl.replace o.view pos gs;
    gs

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.replace tbl key v;
    v

let rw_select o t src =
  List.concat
    (List.init (Array.length o.docs) (fun pos ->
         memo o.sel (t, pos) (fun () ->
             Gql_exec.Server.render_graphs (evaluate ~docs:(one_graph o.docs.(pos)) src))))
  |> List.sort String.compare

let rw_view_read o t src =
  List.concat
    (List.init (Array.length o.docs) (fun pos ->
         memo o.vread (t, pos) (fun () ->
             match rw_view o pos with
             | [] -> []
             | gs ->
               Gql_exec.Server.render_graphs
                 (evaluate ~docs:[ (Ast.view_source "hot", gs) ] src))))
  |> List.sort String.compare

(* A write aimed at the view: insert an S or O atom bonded to an
   existing S or O atom, or flip an S/O label; the two alternate. *)
let rw_write o rng ~k =
  let pos = Rng.int rng (Array.length o.docs) in
  let g = o.docs.(pos) in
  let gname = Option.get (Graph.name g) in
  let n = Graph.n_nodes g in
  let so =
    List.filter
      (fun v -> match Graph.label g v with "S" | "O" -> true | _ -> false)
      (List.init n Fun.id)
  in
  let v =
    match so with [] -> Rng.int rng n | l -> List.nth l (Rng.int rng (List.length l))
  in
  let vname = Option.get (Graph.node_name g v) in
  let flip = if Graph.label g v = "S" then "O" else "S" in
  let src =
    if k mod 2 = 0 then
      Printf.sprintf
        {|insert node w%d <atom label="%s"> into doc("CHEM").%s; insert edge (%s, w%d) into doc("CHEM").%s;|}
        k flip gname vname k gname
    else Printf.sprintf {|update node doc("CHEM").%s.%s set <label="%s">;|} gname vname flip
  in
  let last = ref g in
  let r =
    evaluate ~docs:(one_graph g)
      ~writer:(function Eval.W_update { new_graph; _ } -> last := new_graph | _ -> ())
      src
  in
  o.docs.(pos) <- !last;
  Array.iteri
    (fun t _ -> Hashtbl.remove o.sel (t, pos))
    chem_templates;
  Hashtbl.remove o.view pos;
  Array.iteri (fun t _ -> Hashtbl.remove o.vread (t, pos)) view_templates;
  { src; kind = Write; expect = []; writes = r.Eval.writes; wait = true }

let chem_rw ~seed ~requests =
  let graphs = compounds () in
  write_store "chem.pristine.store" graphs;
  let o =
    {
      docs = Array.of_list graphs;
      sel = Hashtbl.create 4096;
      view = Hashtbl.create 512;
      vread = Hashtbl.create 1024;
    }
  in
  let sel_src = Array.map (selection ~source:chem_source) chem_templates in
  let vread_src = Array.map (selection ~source:{|view("hot")|}) view_templates in
  let read t = { src = sel_src.(t); kind = Read; expect = rw_select o t sel_src.(t); writes = 0; wait = true } in
  let view_read t =
    { src = vread_src.(t); kind = View_read; expect = rw_view_read o t vread_src.(t); writes = 0; wait = true }
  in
  let rng = Rng.create seed in
  let k = ref 0 in
  let create = checked ~kind:Ddl ~wait:true ~docs:[ ("CHEM", graphs) ] create_view in
  (* warm-up: create the view, one pass over every read template, and
     one write — the first refresh builds the view's match caches *)
  let warmup =
    let reads = List.init (Array.length sel_src) read in
    let vreads = List.init (Array.length vread_src) view_read in
    let w = rw_write o rng ~k:0 in
    (create :: reads) @ vreads @ [ w ]
  in
  let next_read = cycler rng (Array.length sel_src) in
  let next_view_read = cycler rng (Array.length vread_src) in
  let load =
    in_order requests (fun i ->
        match i mod 8 with
        | 7 ->
          incr k;
          rw_write o rng ~k:!k
        | 0 | 3 -> view_read (next_view_read ())
        | _ -> read (next_read ()))
  in
  {
    name = "chem_rw";
    doc_args = [ "CHEM=chem.store" ];
    stores = [ ("chem.store", "chem.pristine.store") ];
    setups = 7;
    warmup;
    load = Array.of_list load;
    sizes =
      Printf.sprintf "%d compounds, view over S-O bonds (%d graphs at start)"
        n_compounds
        (List.length (Eval.returned (evaluate ~docs:[ ("CHEM", graphs) ] view_def)));
  }

(* Requests in one run's timed load: enough for the parent to take
   about [seconds] on a 2-vCPU host, and never fewer than 1,000 reads
   and 200 writes, so at least 50 reads lie beyond the read p95 and 20
   writes beyond the write p90. *)
let make name ~seed ~seconds =
  let scaled per_s floor = max floor (per_s * seconds) in
  match name with
  | "ppi_cold" -> ppi_cold ~seed ~requests:(scaled 430 2000)
  | "chem_hot" -> chem_hot ~seed ~requests:(scaled 100 1500)
  | "chem_rw" -> chem_rw ~seed ~requests:(scaled 80 1600)
  | _ -> invalid_arg ("unknown workload " ^ name)
