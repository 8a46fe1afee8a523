(* Materialized graph views: parser/pp round-trip (the persistence
   path re-parses printed definitions), eval create/read/drop
   semantics, the O(delta) maintainer against the drop-and-re-evaluate
   oracle (QCheck, including graph deletes and dirty-ball overflow),
   view records in the store (newest-wins, crash atomicity, verify),
   and the service integration (watermarked read-your-writes over a
   view, per-graph cache isolation). *)

open Gql_graph
module Ast = Gql_core.Ast
module Gql = Gql_core.Gql
module Eval = Gql_core.Eval
module View = Gql_exec.View
module Service = Gql_exec.Service
module Store = Gql_storage.Store
module Pager = Gql_storage.Pager
module Codec = Gql_storage.Codec
module M = Gql_obs.Metrics

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let copy_file src dst =
  let s = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc s)

let graph_print g = Format.asprintf "%a" Graph.pp g
let multiset gs = List.sort compare (List.map graph_print gs)

let check_multiset msg expected actual =
  Alcotest.(check (list string)) msg (multiset expected) (multiset actual)

let lbl s = Tuple.make [ ("label", Value.Str s) ]

(* The canonical view definition used throughout: every edge whose
   endpoint labels are ordered — an unconstrained pattern plus a where
   filter, so the maintainer's keep_match path is exercised too. *)
let def_src =
  {|for graph P { node a; node b; edge e (a, b); } exhaustive in doc("D")
where P.a.label < P.b.label
return graph { node P.a, P.b; edge ee (P.a, P.b); }|}

let parse_def src =
  match Gql.parse_program (src ^ ";") with
  | [ Ast.Sflwr f ] -> f
  | _ -> Alcotest.fail "expected a single FLWR statement"

let view_def = parse_def def_src

(* An A/B-alternating chain: big enough that a one-edge write's dirty
   ball stays well under the overflow threshold. *)
let chain ?name n =
  let g =
    Graph.of_labeled
      ~labels:(Array.init n (fun i -> if i mod 2 = 0 then "A" else "B"))
      (List.init (n - 1) (fun i -> (i, i + 1)))
  in
  Graph.with_name g name

let scratch docs =
  Eval.returned (Eval.run ~docs:[ ("D", docs) ] [ Ast.Sflwr view_def ])

(* ---- parser / printer ---- *)

let test_parse_roundtrip () =
  (match Gql.parse_program ("create materialized view hot as " ^ def_src ^ ";") with
  | [ Ast.Screate_view v ] ->
    Alcotest.(check string) "name" "hot" v.Ast.v_name;
    Alcotest.(check bool) "materialized" true v.Ast.v_materialized;
    (* what pp_flwr prints must re-parse to a def that prints the same
       — this fixed point is the store's definition encoding *)
    let text = Format.asprintf "%a" Ast.pp_flwr v.Ast.v_query in
    let text2 = Format.asprintf "%a" Ast.pp_flwr (parse_def text) in
    Alcotest.(check string) "pp_flwr fixed point" text text2
  | _ -> Alcotest.fail "create materialized view should parse");
  (match Gql.parse_program "create view plain as for P exhaustive in doc(\"D\") return graph { node P.a; };" with
  | [ Ast.Screate_view v ] ->
    Alcotest.(check bool) "plain view" false v.Ast.v_materialized
  | _ -> Alcotest.fail "create view should parse");
  (match Gql.parse_program "drop view hot;" with
  | [ Ast.Sdrop_view "hot" ] -> ()
  | _ -> Alcotest.fail "drop view should parse");
  Alcotest.(check string) "view source prints back" "view(\"hot\")"
    (Format.asprintf "%a" Ast.pp_source (Ast.view_source "hot"));
  Alcotest.(check (option string)) "view source recognized" (Some "hot")
    (Ast.view_of_source (Ast.view_source "hot"));
  Alcotest.(check (option string)) "doc source is not a view" None
    (Ast.view_of_source "D")

(* ---- eval semantics ---- *)

let test_eval_create_read_drop () =
  let docs = [ ("D", [ chain ~name:"g1" 6 ]) ] in
  let writes = ref [] in
  let program =
    "create materialized view hot as " ^ def_src ^ ";\n"
    ^ {|for graph Q { node a; node b; edge e (a, b); } exhaustive in view("hot")
        return graph { node Q.a; };|}
  in
  let res =
    Eval.run ~docs
      ~writer:(fun w -> writes := w :: !writes)
      (Gql.parse_program program)
  in
  (* 5 ordered edges in the chain, each view graph re-matched once per
     orientation-respecting mapping *)
  Alcotest.(check bool) "view read returns matches" true
    (Eval.returned res <> []);
  (match !writes with
  | [ Eval.W_create_view { name; materialized; graphs; epoch; _ } ] ->
    Alcotest.(check string) "write names the view" "hot" name;
    Alcotest.(check bool) "write carries the flag" true materialized;
    Alcotest.(check int) "created at epoch 0" 0 epoch;
    check_multiset "write carries the materialization" (scratch [ chain 6 ])
      graphs
  | _ -> Alcotest.fail "expected exactly one create-view write");
  (* drop removes the collection: a later read is an error *)
  (match
     Eval.run ~docs
       (Gql.parse_program
          ("create view hot as " ^ def_src ^ ";\ndrop view hot;\n"
          ^ {|for graph Q { node a; } exhaustive in view("hot") return graph { node Q.a; };|}))
   with
  | exception Eval.Error msg ->
    Alcotest.(check bool) "unknown view after drop" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "reading a dropped view should fail");
  (* dropping a view that never existed is an error too *)
  match Eval.run ~docs (Gql.parse_program "drop view nope;") with
  | exception Eval.Error _ -> ()
  | _ -> Alcotest.fail "dropping an unknown view should fail"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_eval_error msg_part program =
  match Eval.run ~docs:[ ("D", [ chain 6 ]) ] (Gql.parse_program program) with
  | exception Eval.Error msg ->
    if not (contains ~sub:msg_part msg) then
      Alcotest.failf "error %S does not mention %S" msg msg_part
  | _ -> Alcotest.failf "program should fail: %s" program

let test_eval_self_containment () =
  (* a named pattern is resolved inline at create, so it works *)
  let res =
    Eval.run
      ~docs:[ ("D", [ chain ~name:"g1" 6 ]) ]
      (Gql.parse_program
         ({|graph W { node a; node b; edge e (a, b); };
            create materialized view hot as for W exhaustive in doc("D")
            return graph { node W.a, W.b; edge ee (W.a, W.b); };|}
         ^ {|for graph Q { node a; node b; edge e (a, b); } exhaustive in view("hot")
             return graph { node Q.a; };|}))
  in
  Alcotest.(check bool) "named pattern resolved inline" true
    (Eval.returned res <> []);
  (* a definition over a program variable cannot be maintained *)
  expect_eval_error "self-contained"
    {|C := graph { node z <Z> ; };
      create view bad as for graph P { node a; } exhaustive in doc("D")
      return C;|};
  (* a resolved pattern must not lean on the program's other patterns:
     the stored definition would not compile again *)
  (match
     Eval.run ~docs:[ ("D", [ chain 6 ]) ]
       (Gql.parse_program
          {|graph X { node a; };
            graph W { graph X; node b; };
            create view bad as for W exhaustive in doc("D")
            return graph { node W.b; };|})
   with
  | exception Gql_core.Motif.Error msg ->
    Alcotest.(check bool) "names the other pattern" true (contains ~sub:"X" msg)
  | _ -> Alcotest.fail "a view leaning on another pattern should fail");
  (* views read base documents only *)
  expect_eval_error "base docs"
    ("create view a as " ^ def_src ^ ";\n"
    ^ {|create view b as for graph P { node a; } exhaustive in view("a")
        return graph { node P.a; };|});
  (* the source must be a document collection, not a variable *)
  expect_eval_error "document collection"
    {|C := graph { node z <Z>; };
      create view bad as for graph P { node a; } exhaustive in doc("C")
      return graph { node P.a; };|}

(* ---- the maintainer, deterministically ---- *)

let test_refresh_paths () =
  let g = chain ~name:"g1" 20 in
  let v = View.make ~name:"hot" ~materialized:true view_def in
  View.attach v ~docs:[ g ];
  Alcotest.(check bool) "definition is delta-eligible" true
    (View.incremental v);
  check_multiset "attach = scratch" (scratch [ g ]) (View.graphs v);
  (* a one-edge write's ball is tiny: the incremental path runs *)
  let n = Graph.n_nodes g in
  let g', delta =
    Mutate.apply_all g
      [
        Mutate.Add_node { name = None; tuple = lbl "B" };
        Mutate.Add_edge { name = None; src = 0; dst = n; tuple = Tuple.empty };
      ]
  in
  let kind =
    View.refresh v ~docs:[ g' ]
      (View.Update { index = 0; new_graph = g'; delta })
  in
  Alcotest.(check bool) "small ball -> incremental" true (kind = `Incremental);
  Alcotest.(check int) "epoch bumped" 1 (View.epoch v);
  check_multiset "incremental = scratch" (scratch [ g' ]) (View.graphs v);
  (* force the overflow fallback on the next write: still correct *)
  let g'', delta' =
    Mutate.apply_all g' [ Mutate.Set_node { v = 1; tuple = lbl "C" } ]
  in
  let kind' =
    View.refresh v ~max_dirty_frac:0.0 ~docs:[ g'' ]
      (View.Update { index = 0; new_graph = g''; delta = delta' })
  in
  Alcotest.(check bool) "forced overflow -> full" true (kind' = `Full);
  check_multiset "overflow fallback = scratch" (scratch [ g'' ])
    (View.graphs v);
  Alcotest.(check (pair int int)) "one of each path counted" (1, 1)
    (View.refreshes v);
  (* inserts and removes of whole source graphs *)
  let extra = chain ~name:"g2" 7 in
  ignore
    (View.refresh v ~docs:[ g''; extra ] (View.Insert { new_graph = extra }));
  check_multiset "insert = scratch" (scratch [ g''; extra ]) (View.graphs v);
  ignore (View.refresh v ~docs:[ extra ] (View.Remove { index = 0 }));
  check_multiset "remove = scratch" (scratch [ extra ]) (View.graphs v);
  (* a non-exhaustive definition is not delta-eligible and still
     refreshes correctly through the full path *)
  let ne =
    View.make ~name:"ne" ~materialized:false
      (parse_def
         {|for graph P { node a; node b; edge e (a, b); } in doc("D")
           where P.a.label < P.b.label
           return graph { node P.a, P.b; edge ee (P.a, P.b); }|})
  in
  View.attach ne ~docs:[ g ];
  Alcotest.(check bool) "non-exhaustive is not delta-eligible" false
    (View.incremental ne);
  let kind'' =
    View.refresh ne ~docs:[ g' ]
      (View.Update { index = 0; new_graph = g'; delta })
  in
  Alcotest.(check bool) "ineligible -> full" true (kind'' = `Full)

let test_lazy_seeding () =
  (* adopting a persisted materialization keeps the caches lazy; the
     first refresh rebuilds them (counts full) and later ones are
     incremental *)
  let g = chain ~name:"g1" 20 in
  let v = View.make ~name:"hot" ~materialized:true view_def in
  View.attach ~graphs:(scratch [ g ]) v ~docs:[ g ];
  let g', delta =
    Mutate.apply_all g [ Mutate.Set_node { v = 0; tuple = lbl "C" } ]
  in
  let k1 =
    View.refresh v ~docs:[ g' ]
      (View.Update { index = 0; new_graph = g'; delta })
  in
  Alcotest.(check bool) "first refresh rebuilds" true (k1 = `Full);
  check_multiset "rebuild = scratch" (scratch [ g' ]) (View.graphs v);
  let g'', delta' =
    Mutate.apply_all g' [ Mutate.Set_node { v = 19; tuple = lbl "A" } ]
  in
  let k2 =
    View.refresh v ~docs:[ g'' ]
      (View.Update { index = 0; new_graph = g''; delta = delta' })
  in
  Alcotest.(check bool) "then incremental" true (k2 = `Incremental);
  check_multiset "incremental after seed = scratch" (scratch [ g'' ])
    (View.graphs v)

(* ---- QCheck: random DML vs the drop-and-re-evaluate oracle ---- *)

type step =
  | S_insert of Graph.t
  | S_remove of int
  | S_update of int * int list * bool  (* index seed, op seeds, force overflow *)

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun g -> S_insert g) (Test_matcher.gen_labeled_graph ~max_n:6));
        (1, map (fun k -> S_remove k) nat);
        ( 4,
          map3
            (fun i seeds ov -> S_update (i, seeds, ov))
            nat
            (list_size (int_range 1 6) nat)
            bool );
      ])

let gen_case =
  QCheck.Gen.(
    pair (Test_matcher.gen_labeled_graph ~max_n:8)
      (list_size (int_range 1 8) gen_step))

let print_step = function
  | S_insert g -> Format.asprintf "insert %a" Graph.pp g
  | S_remove k -> Printf.sprintf "remove %d" k
  | S_update (i, seeds, ov) ->
    Printf.sprintf "update %d [%s]%s" i
      (String.concat "," (List.map string_of_int seeds))
      (if ov then " overflow" else "")

let print_case (g, steps) =
  Format.asprintf "%a@.%s" Graph.pp g
    (String.concat "\n" (List.map print_step steps))

let apply_step v docs step =
  match step with
  | S_insert g ->
    let docs' = docs @ [ g ] in
    ignore (View.refresh v ~docs:docs' (View.Insert { new_graph = g }));
    docs'
  | S_remove k ->
    if docs = [] then docs
    else begin
      let i = k mod List.length docs in
      let docs' = List.filteri (fun j _ -> j <> i) docs in
      ignore (View.refresh v ~docs:docs' (View.Remove { index = i }));
      docs'
    end
  | S_update (k, seeds, overflow) ->
    if docs = [] then docs
    else begin
      let i = k mod List.length docs in
      let g = List.nth docs i in
      let ops = Test_mutate.derive_ops g seeds in
      if ops = [] then docs
      else begin
        let g', delta = Mutate.apply_all g ops in
        let docs' = List.mapi (fun j x -> if j = i then g' else x) docs in
        let max_dirty_frac = if overflow then 0.0 else 0.5 in
        ignore
          (View.refresh v ~max_dirty_frac ~docs:docs'
             (View.Update { index = i; new_graph = g'; delta }));
        docs'
      end
    end

let prop_incremental_equals_scratch =
  QCheck.Test.make
    ~name:"incremental maintenance = drop-and-re-evaluate (multiset)"
    ~count:200
    (QCheck.make gen_case ~print:print_case)
    (fun (g0, steps) ->
      let v = View.make ~name:"v" ~materialized:true view_def in
      let docs = ref [ g0 ] in
      View.attach v ~docs:!docs;
      List.iter
        (fun step ->
          docs := apply_step v !docs step;
          let want = multiset (scratch !docs) in
          let got = multiset (View.graphs v) in
          if want <> got then
            QCheck.Test.fail_reportf
              "view diverged after %s:@.want %s@.got  %s" (print_step step)
              (String.concat "|" want) (String.concat "|" got))
        steps;
      true)

(* ---- persistence: blobs and store records ---- *)

let test_encode_decode () =
  let gs = [ chain ~name:"g1" 6; chain ~name:"g2" 4 ] in
  let v = View.make ~name:"hot" ~materialized:true ~epoch:7 view_def in
  View.attach ~graphs:(scratch gs) v ~docs:gs;
  let blob = View.encode v in
  let v' = View.decode ~name:"hot" blob in
  Alcotest.(check string) "name" "hot" (View.name v');
  Alcotest.(check bool) "materialized" true (View.materialized v');
  Alcotest.(check int) "epoch" 7 (View.epoch v');
  Alcotest.(check string) "source" "D" (View.source v');
  check_multiset "materialization round-trips" (View.graphs v)
    (View.graphs v');
  check_multiset "decoded_graphs agrees" (View.graphs v)
    (View.decoded_graphs blob);
  (* a plain view's blob carries the definition only *)
  let p = View.make ~name:"p" ~materialized:false view_def in
  View.attach p ~docs:[ chain 6 ];
  let pb = View.encode p in
  Alcotest.(check int) "plain blob has no graphs" 0
    (List.length (View.decoded_graphs pb));
  Alcotest.(check bool) "plain decode has no materialization" true
    (View.graphs (View.decode ~name:"p" pb) = []);
  (* malformed blobs raise Corrupt, never decode garbage *)
  (match View.decode ~name:"x" "" with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "empty blob should be corrupt");
  match View.decode ~name:"x" "\003\255" with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated blob should be corrupt"

(* A stored definition goes through the same derivation cap as a
   query: decoding one with 2^13 derivations fails with the typed cap
   error at the 4,097th, before the rest are built. *)
let test_decode_derivation_cap () =
  let def =
    Test_eval.alternatives 13
    ^ {| exhaustive in doc("D") return graph { node P.a0; }|}
  in
  (* the same definition is over the cap for a query, too *)
  (match
     Eval.run ~docs:[ ("D", [ chain 6 ]) ]
       (Gql.parse_program ("for " ^ def ^ ";"))
   with
  | exception Eval.Error msg ->
    Alcotest.(check bool) "query names the cap" true
      (contains ~sub:"more than 4096 derivations" msg)
  | _ -> Alcotest.fail "query over the derivation cap should fail");
  let buf = Buffer.create 256 in
  Buffer.add_char buf '\000';
  Codec.write_uvarint buf 0;
  Codec.write_string buf ("for " ^ def);
  match View.decode ~name:"wide" (Buffer.contents buf) with
  | exception Eval.Error msg ->
    Alcotest.(check bool) "decode names the cap" true
      (contains ~sub:"more than 4096 derivations" msg)
  | _ -> Alcotest.fail "decoding a view over the derivation cap should fail"

let test_store_view_records () =
  let path = tmp "gql_view_records.db" in
  (try Sys.remove path with Sys_error _ -> ());
  let st = Store.create path in
  ignore (Store.add_graph st (chain ~name:"g1" 6));
  Store.set_view st ~name:"hot" "blob-v1";
  Store.set_view st ~name:"cold" "blob-c";
  Store.set_view st ~name:"hot" "blob-v2";
  Alcotest.(check (option string)) "in-memory newest wins" (Some "blob-v2")
    (Store.view_blob st "hot");
  Store.close st;
  let st = Store.open_existing path in
  Alcotest.(check (list (pair string string))) "replayed, newest wins"
    [ ("cold", "blob-c"); ("hot", "blob-v2") ]
    (Store.views st);
  Alcotest.(check int) "graphs unaffected" 1 (Store.live_count st);
  Alcotest.(check bool) "drop tombstones" true (Store.drop_view st "hot");
  Alcotest.(check bool) "dropping the unknown is a no-op" false
    (Store.drop_view st "nope");
  Store.close st;
  let st = Store.open_existing path in
  Alcotest.(check (list (pair string string))) "drop survives reopen"
    [ ("cold", "blob-c") ]
    (Store.views st);
  (* verify re-reads every committed record: 1 graph + 3 creates + 1
     tombstone *)
  Alcotest.(check int) "verify walks all records" 5 (Store.verify st);
  Store.close st;
  Sys.remove path

(* The crash matrix, for view records: a crash at every byte of a
   set_view commit leaves either the whole record (decodable) or no
   record — never a torn view. *)
let test_view_crash_matrix () =
  let base = tmp "gql_view_crash_base.db" in
  let work = tmp "gql_view_crash_work.db" in
  (try Sys.remove base with Sys_error _ -> ());
  let st = Store.create base in
  ignore (Store.add_graph st (chain ~name:"g1" 8));
  Store.close st;
  let v = View.make ~name:"hot" ~materialized:true view_def in
  View.attach v ~docs:[ chain ~name:"g1" 8 ];
  let blob = View.encode v in
  (* measure the clean commit's write volume *)
  copy_file base work;
  let st = Store.open_existing work in
  Store.set_view st ~name:"hot" blob;
  Store.flush st;
  let total_bytes = Pager.bytes_written (Store.pager st) in
  Store.close st;
  Alcotest.(check bool) "commit writes something" true (total_bytes > 0);
  let present = ref 0 and absent = ref 0 in
  for fault = 0 to total_bytes do
    copy_file base work;
    let st = Store.open_existing work in
    Pager.set_fault (Store.pager st) ~after_bytes:fault;
    (match
       Store.set_view st ~name:"hot" blob;
       Store.flush st
     with
    | () -> ()
    | exception Pager.Crash -> ());
    Store.abort st;
    let st = Store.open_existing work in
    (match Store.view_blob st "hot" with
    | None -> incr absent
    | Some b ->
      incr present;
      Alcotest.(check string)
        (Printf.sprintf "committed blob intact (fault at %d)" fault)
        blob b;
      (* and it decodes back to the same view *)
      let v' = View.decode ~name:"hot" b in
      check_multiset
        (Printf.sprintf "decoded materialization (fault at %d)" fault)
        (View.graphs v) (View.graphs v'));
    Alcotest.(check int)
      (Printf.sprintf "base graph untouched (fault at %d)" fault)
      1 (Store.live_count st);
    Store.close st
  done;
  Alcotest.(check bool) "both outcomes seen" true (!present > 0 && !absent > 0);
  Sys.remove base;
  Sys.remove work

(* ---- the service ---- *)

let named_chain name n =
  let b = Graph.Builder.create () in
  let ids =
    Array.init n (fun i ->
        Graph.Builder.add_labeled_node b
          ~name:(Printf.sprintf "n%d" i)
          (if i mod 2 = 0 then "A" else "B"))
  in
  for i = 0 to n - 2 do
    ignore (Graph.Builder.add_edge b ids.(i) ids.(i + 1))
  done;
  Graph.with_name (Graph.Builder.build b) (Some name)

(* the where clause pins the orientation — otherwise every (undirected)
   2-node view graph would match twice *)
let read_view_q =
  {|for graph Q { node a; node b; edge e (a, b); } exhaustive in view("hot")
    where Q.a.label < Q.b.label
    return graph { node Q.a, Q.b; edge ee (Q.a, Q.b); };|}

let returned_of = function
  | Service.Done r -> Eval.returned r
  | Service.Rejected _ | Service.Failed _ -> Alcotest.fail "query failed"

let test_service_views () =
  let ga = named_chain "GA" 20 in
  let t = Service.create ~jobs:1 ~docs:[ ("D", [ ga ]) ] () in
  ignore (Service.submit t ("create materialized view hot as " ^ def_src ^ ";"));
  ignore (Service.drain t);
  (match Service.views t with
  | [ vi ] ->
    Alcotest.(check string) "registered" "hot" vi.Service.vi_name;
    Alcotest.(check bool) "materialized" true vi.Service.vi_materialized;
    Alcotest.(check int) "fresh at epoch 0" 0 vi.Service.vi_epoch;
    Alcotest.(check bool) "delta-eligible" true vi.Service.vi_incremental
  | _ -> Alcotest.fail "expected one registered view");
  ignore (Service.submit t read_view_q);
  let baseline =
    match Service.drain t with
    | [ o ] -> List.length (returned_of o.Service.o_status)
    | _ -> Alcotest.fail "expected one outcome"
  in
  Alcotest.(check bool) "view readable" true (baseline > 0);
  (* a write to the source; the watermark-gated read sees the view
     already refreshed *)
  ignore
    (Service.submit t
       {|insert node z <p label="B"> into doc("D").GA;
         insert edge (n0, z) into doc("D").GA;|});
  ignore (Service.submit t ~after:(Service.watermark t) read_view_q);
  (match Service.drain t with
  | [ _w; o ] ->
    Alcotest.(check int) "view reflects the write" (baseline + 1)
      (List.length (returned_of o.Service.o_status))
  | _ -> Alcotest.fail "expected two outcomes");
  (match Service.views t with
  | [ vi ] ->
    Alcotest.(check bool) "epoch advanced" true (vi.Service.vi_epoch > 0);
    Alcotest.(check bool) "refresh counted" true
      (vi.Service.vi_incr_refreshes + vi.Service.vi_full_refreshes > 0)
  | _ -> Alcotest.fail "expected one registered view");
  let m = Service.metrics t in
  Alcotest.(check bool) "exec.views.reads counted" true
    (M.get m M.Views_reads >= 2);
  Alcotest.(check bool) "maintenance counted" true
    (M.get m M.Views_incremental + M.get m M.Views_full >= 1);
  (* drop: the collection disappears and later reads fail typed *)
  ignore (Service.submit t "drop view hot;");
  ignore (Service.submit t ~after:(Service.watermark t) read_view_q);
  (match Service.drain t with
  | [ _d; { Service.o_status = Service.Failed _; _ } ] -> ()
  | _ -> Alcotest.fail "read after drop should fail");
  Alcotest.(check int) "no views left" 0 (List.length (Service.views t));
  Service.shutdown t

let test_service_install_preloaded () =
  (* the gqlsh startup path: decode a persisted view and install it —
     a materialized view must be served without re-evaluation *)
  let ga = named_chain "GA" 12 in
  let v = View.make ~name:"hot" ~materialized:true view_def in
  View.attach v ~docs:[ ga ];
  let blob = View.encode v in
  let t = Service.create ~jobs:1 ~docs:[ ("D", [ ga ]) ] () in
  Service.install_view t (View.decode ~name:"hot" blob);
  ignore (Service.submit t read_view_q);
  (match Service.drain t with
  | [ o ] ->
    Alcotest.(check int) "preloaded view serves its materialization"
      (List.length (View.graphs v))
      (List.length (returned_of o.Service.o_status))
  | _ -> Alcotest.fail "expected one outcome");
  Service.shutdown t

let test_service_view_cache_isolation () =
  (* satellite: view (re)materialization must not cost unrelated
     graphs their warm plans or epochs *)
  let ga = named_chain "GA" 20 in
  let gb = named_chain "GB" 20 in
  let t = Service.create ~jobs:1 ~docs:[ ("D", [ ga ]); ("E", [ gb ]) ] () in
  let warm_e =
    {|for graph P { node a; node b; edge e (a, b); } exhaustive in doc("E")
      where P.a.label < P.b.label
      return graph { node P.a, P.b; edge ee (P.a, P.b); };|}
  in
  ignore (Service.submit t warm_e);
  ignore (Service.drain t);
  Alcotest.(check (option int)) "GB warm at epoch 0" (Some 0)
    (Service.graph_epoch t gb);
  ignore (Service.submit t ("create materialized view hot as " ^ def_src ^ ";"));
  ignore (Service.drain t);
  ignore
    (Service.submit t
       {|insert node z <p label="B"> into doc("D").GA;
         insert edge (n0, z) into doc("D").GA;|});
  ignore (Service.drain t);
  (* the view refreshed (GA's write) — GB saw nothing *)
  Alcotest.(check (option int)) "GB epoch untouched by view refresh" (Some 0)
    (Service.graph_epoch t gb);
  ignore (Service.submit t warm_e);
  (match Service.drain t with
  | [ o ] ->
    Alcotest.(check int) "GB still answers warm" 19
      (List.length (returned_of o.Service.o_status))
  | _ -> Alcotest.fail "expected one outcome");
  Service.shutdown t

let suite =
  [
    Alcotest.test_case "create/drop view parse and pp round-trip" `Quick
      test_parse_roundtrip;
    Alcotest.test_case "eval: create, read, drop" `Quick
      test_eval_create_read_drop;
    Alcotest.test_case "eval: definitions must be self-contained" `Quick
      test_eval_self_containment;
    Alcotest.test_case "refresh paths: incremental, overflow, ineligible"
      `Quick test_refresh_paths;
    Alcotest.test_case "adopted materialization seeds lazily" `Quick
      test_lazy_seeding;
    QCheck_alcotest.to_alcotest prop_incremental_equals_scratch;
    Alcotest.test_case "blob encode/decode round-trip" `Quick
      test_encode_decode;
    Alcotest.test_case "blob over the derivation cap is rejected" `Quick
      test_decode_derivation_cap;
    Alcotest.test_case "store view records: newest wins, drop, verify" `Quick
      test_store_view_records;
    Alcotest.test_case "crash matrix: view records are all-or-nothing" `Slow
      test_view_crash_matrix;
    Alcotest.test_case "service: create, watermark read, drop" `Quick
      test_service_views;
    Alcotest.test_case "service: preloaded materialized view" `Quick
      test_service_install_preloaded;
    Alcotest.test_case "service: view refresh keeps unrelated graphs warm"
      `Quick test_service_view_cache_isolation;
  ]
