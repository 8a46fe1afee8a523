type edge = {
  src : int;
  dst : int;
  etuple : Tuple.t;
}

module Smap = Map.Make (String)

(* Name -> id lookup. [frozen] is the builder's table, never written
   after {!Builder.build}; the copy-on-write extensions record the
   names they add in the persistent [added], so a graph and all its
   extensions share one table and each one sees only its own names. *)
type names = { frozen : (string, int) Hashtbl.t; added : int Smap.t }

type t = {
  directed : bool;
  name : string option;
  gtuple : Tuple.t;
  node_tuples : Tuple.t array;
  node_names : string option array;
  edges : edge array;
  edge_names : string option array;
  (* CSR adjacency: for node v, (neighbor, edge id) pairs are
     adj.(v), sorted by (neighbor, edge id) so that edge probes are
     binary searches. Out-adjacency for directed graphs; full adjacency
     for undirected ones. *)
  adj : (int * int) array array;
  in_adj : (int * int) array array;  (* == adj when undirected *)
  (* The same rows split into parallel unboxed int arrays: probing an
     [int array] touches no tuple pointers, so the matcher's binary
     searches stay inside one cache line per step. *)
  adj_nbr : int array array;
  adj_eid : int array array;
  by_node_name : names;
  by_edge_name : names;
  stamp : int;  (* unique per construction; identity only *)
}

let find_name ns s =
  match Smap.find_opt s ns.added with
  | Some _ as hit -> hit
  | None -> Hashtbl.find_opt ns.frozen s

(* domain-safe: graphs are built on every worker domain *)
let next_stamp = Atomic.make 0
let fresh_stamp () = Atomic.fetch_and_add next_stamp 1
let stamp g = g.stamp

let directed g = g.directed
let name g = g.name
let tuple g = g.gtuple
let n_nodes g = Array.length g.node_tuples
let n_edges g = Array.length g.edges
let node_tuple g v = g.node_tuples.(v)
let label g v = Tuple.label g.node_tuples.(v)
let node_name g v = g.node_names.(v)
let node_by_name g name = find_name g.by_node_name name
let edge g e = g.edges.(e)
let edge_name g e = g.edge_names.(e)
let edge_by_name g name = find_name g.by_edge_name name

let degree g v = Array.length g.adj.(v)
let in_degree g v = Array.length g.in_adj.(v)
let neighbors g v = g.adj.(v)
let in_neighbors g v = g.in_adj.(v)
let adj_nbrs g v = g.adj_nbr.(v)
let adj_eids g v = g.adj_eid.(v)

(* Deduplicated neighbor ids regardless of orientation, ascending.
   Rows are sorted by neighbor id, so undirected graphs dedup in one
   pass and directed graphs merge the sorted out/in rows. *)
let undirected_neighbor_ids g v =
  let push out n x =
    if !n = 0 || out.(!n - 1) <> x then begin
      out.(!n) <- x;
      incr n
    end
  in
  if g.directed then begin
    let a = g.adj.(v) and b = g.in_adj.(v) in
    let la = Array.length a and lb = Array.length b in
    let out = Array.make (max 1 (la + lb)) 0 in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < la || !j < lb do
      if !j >= lb || (!i < la && fst a.(!i) <= fst b.(!j)) then begin
        push out n (fst a.(!i));
        incr i
      end
      else begin
        push out n (fst b.(!j));
        incr j
      end
    done;
    Array.sub out 0 !n
  end
  else begin
    let a = g.adj.(v) in
    let la = Array.length a in
    let out = Array.make (max 1 la) 0 in
    let n = ref 0 in
    for i = 0 to la - 1 do
      push out n (fst a.(i))
    done;
    Array.sub out 0 !n
  end

(* First index of [row] holding [v], or [Array.length row] if absent.
   Rows are sorted, so parallel edges to [v] occupy a contiguous run
   starting here. Operates on the unboxed neighbor-id rows. *)
let row_lower_bound (row : int array) v =
  let lo = ref 0 and hi = ref (Array.length row) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get row mid < v then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length row && Array.unsafe_get row !lo = v then !lo
  else Array.length row

let has_edge g u v =
  let row = g.adj_nbr.(u) in
  row_lower_bound row v < Array.length row

let iter_edges_between g u v ~f =
  let row = g.adj_nbr.(u) in
  let eids = g.adj_eid.(u) in
  let n = Array.length row in
  let i = ref (row_lower_bound row v) in
  while !i < n && Array.unsafe_get row !i = v do
    f (Array.unsafe_get eids !i);
    incr i
  done

let find_all_edges g u v =
  let acc = ref [] in
  iter_edges_between g u v ~f:(fun e -> acc := e :: !acc);
  List.rev !acc

let find_edge g u v =
  let row = g.adj_nbr.(u) in
  let i = row_lower_bound row v in
  if i < Array.length row then Some g.adj_eid.(u).(i) else None

let fold_nodes g ~init ~f =
  let acc = ref init in
  for v = 0 to n_nodes g - 1 do
    acc := f !acc v
  done;
  !acc

let iter_nodes g ~f =
  for v = 0 to n_nodes g - 1 do
    f v
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  Array.iteri (fun i e -> acc := f !acc i e) g.edges;
  !acc

let iter_edges g ~f = Array.iteri f g.edges

let with_name g name = { g with name; stamp = fresh_stamp () }

let map_node_tuples g ~f =
  { g with node_tuples = Array.mapi f g.node_tuples; stamp = fresh_stamp () }

(* --- copy-on-write extension --------------------------------------------- *)

(* Each extension copies the outer arrays it changes (pointer blits)
   and replaces only the rows it touches; every other row, tuple and
   name table is shared with the source graph, which stays valid. *)

let add_name ~dup ns name id =
  match name with
  | None -> ns
  | Some s ->
    if find_name ns s <> None then invalid_arg (Printf.sprintf "%s %S" dup s);
    { ns with added = Smap.add s id ns.added }

let snoc a x = Array.append a [| x |]

let insert_at a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

(* The index after every entry of [row] whose neighbor is <= [v]: a new
   edge has the largest id, so inserting there keeps the row sorted by
   (neighbor, edge id). *)
let insert_pos (row : (int * int) array) v =
  let lo = ref 0 and hi = ref (Array.length row) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if fst (Array.unsafe_get row mid) <= v then lo := mid + 1 else hi := mid
  done;
  !lo

let add_node g ?name tuple =
  let v = n_nodes g in
  let by_node_name =
    add_name ~dup:"Graph.add_node: duplicate node name" g.by_node_name name v
  in
  let adj = snoc g.adj [||] in
  ( {
      g with
      node_tuples = snoc g.node_tuples tuple;
      node_names = snoc g.node_names name;
      adj;
      in_adj = (if g.directed then snoc g.in_adj [||] else adj);
      adj_nbr = snoc g.adj_nbr [||];
      adj_eid = snoc g.adj_eid [||];
      by_node_name;
      stamp = fresh_stamp ();
    },
    v )

let add_edge g ?name ?(tuple = Tuple.empty) src dst =
  let n = n_nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Graph.add_edge: endpoint out of range";
  let e = n_edges g in
  let by_edge_name =
    add_name ~dup:"Graph.add_edge: duplicate edge name" g.by_edge_name name e
  in
  let adj = Array.copy g.adj in
  let adj_nbr = Array.copy g.adj_nbr and adj_eid = Array.copy g.adj_eid in
  let link v nbr =
    let i = insert_pos adj.(v) nbr in
    adj.(v) <- insert_at adj.(v) i (nbr, e);
    adj_nbr.(v) <- insert_at adj_nbr.(v) i nbr;
    adj_eid.(v) <- insert_at adj_eid.(v) i e
  in
  link src dst;
  let in_adj =
    if g.directed then begin
      let in_adj = Array.copy g.in_adj in
      let row = in_adj.(dst) in
      in_adj.(dst) <- insert_at row (insert_pos row src) (src, e);
      in_adj
    end
    else begin
      (* an undirected self-loop is listed once, as the builder does *)
      if dst <> src then link dst src;
      adj
    end
  in
  ( {
      g with
      edges = snoc g.edges { src; dst; etuple = tuple };
      edge_names = snoc g.edge_names name;
      adj;
      in_adj;
      adj_nbr;
      adj_eid;
      by_edge_name;
      stamp = fresh_stamp ();
    },
    e )

let set_edge_tuple g e tuple =
  if e < 0 || e >= n_edges g then
    invalid_arg "Graph.set_edge_tuple: edge out of range";
  let edges = Array.copy g.edges in
  edges.(e) <- { (edges.(e)) with etuple = tuple };
  { g with edges; stamp = fresh_stamp () }

(* --- construction ------------------------------------------------------ *)

module Builder = struct
  type graph = t

  type t = {
    b_directed : bool;
    b_name : string option;
    b_tuple : Tuple.t;
    mutable b_node_tuples : Tuple.t list;  (* reversed *)
    mutable b_node_names : string option list;  (* reversed *)
    mutable b_n : int;
    mutable b_edges : (string option * edge) list;  (* reversed *)
    mutable b_m : int;
    b_by_node_name : (string, int) Hashtbl.t;
    b_by_edge_name : (string, int) Hashtbl.t;
    mutable b_built : bool;
  }

  let create ?(directed = false) ?name ?(tuple = Tuple.empty) () =
    {
      b_directed = directed;
      b_name = name;
      b_tuple = tuple;
      b_node_tuples = [];
      b_node_names = [];
      b_n = 0;
      b_edges = [];
      b_m = 0;
      b_by_node_name = Hashtbl.create 16;
      b_by_edge_name = Hashtbl.create 16;
      b_built = false;
    }

  let check_live b = if b.b_built then invalid_arg "Graph.Builder: already built"

  let add_node b ?name tuple =
    check_live b;
    let id = b.b_n in
    (match name with
    | Some n ->
      if Hashtbl.mem b.b_by_node_name n then
        invalid_arg (Printf.sprintf "Graph.Builder.add_node: duplicate node name %S" n);
      Hashtbl.add b.b_by_node_name n id
    | None -> ());
    b.b_node_tuples <- tuple :: b.b_node_tuples;
    b.b_node_names <- name :: b.b_node_names;
    b.b_n <- id + 1;
    id

  let add_labeled_node b ?name l =
    add_node b ?name (Tuple.make [ ("label", Value.Str l) ])

  let add_edge b ?name ?(tuple = Tuple.empty) src dst =
    check_live b;
    if src < 0 || src >= b.b_n || dst < 0 || dst >= b.b_n then
      invalid_arg "Graph.Builder.add_edge: endpoint out of range";
    let id = b.b_m in
    (match name with
    | Some n ->
      if Hashtbl.mem b.b_by_edge_name n then
        invalid_arg (Printf.sprintf "Graph.Builder.add_edge: duplicate edge name %S" n);
      Hashtbl.add b.b_by_edge_name n id
    | None -> ());
    b.b_edges <- (name, { src; dst; etuple = tuple }) :: b.b_edges;
    b.b_m <- id + 1;
    id

  let n_nodes b = b.b_n

  let add_graph b (g : graph) =
    check_live b;
    let renum = Array.make (Array.length g.node_tuples) 0 in
    Array.iteri (fun v t -> renum.(v) <- add_node b t) g.node_tuples;
    Array.iter
      (fun e -> ignore (add_edge b ~tuple:e.etuple renum.(e.src) renum.(e.dst)))
      g.edges;
    renum

  let build b =
    check_live b;
    b.b_built <- true;
    let n = b.b_n in
    let node_tuples = Array.make n Tuple.empty in
    let node_names = Array.make n None in
    List.iteri
      (fun i t -> node_tuples.(n - 1 - i) <- t)
      b.b_node_tuples;
    List.iteri (fun i nm -> node_names.(n - 1 - i) <- nm) b.b_node_names;
    let m = b.b_m in
    let edges = Array.make m { src = 0; dst = 0; etuple = Tuple.empty } in
    let edge_names = Array.make m None in
    List.iteri
      (fun i (nm, e) ->
        edges.(m - 1 - i) <- e;
        edge_names.(m - 1 - i) <- nm)
      b.b_edges;
    (* adjacency *)
    let out_deg = Array.make n 0 and in_deg = Array.make n 0 in
    Array.iter
      (fun e ->
        out_deg.(e.src) <- out_deg.(e.src) + 1;
        if b.b_directed then in_deg.(e.dst) <- in_deg.(e.dst) + 1
        else if e.dst <> e.src then out_deg.(e.dst) <- out_deg.(e.dst) + 1)
      edges;
    let adj = Array.init n (fun v -> Array.make out_deg.(v) (0, 0)) in
    let in_adj =
      if b.b_directed then Array.init n (fun v -> Array.make in_deg.(v) (0, 0))
      else adj
    in
    let out_fill = Array.make n 0 and in_fill = Array.make n 0 in
    Array.iteri
      (fun i e ->
        adj.(e.src).(out_fill.(e.src)) <- (e.dst, i);
        out_fill.(e.src) <- out_fill.(e.src) + 1;
        if b.b_directed then begin
          in_adj.(e.dst).(in_fill.(e.dst)) <- (e.src, i);
          in_fill.(e.dst) <- in_fill.(e.dst) + 1
        end
        else if e.dst <> e.src then begin
          adj.(e.dst).(out_fill.(e.dst)) <- (e.src, i);
          out_fill.(e.dst) <- out_fill.(e.dst) + 1
        end)
      edges;
    (* sort rows by (neighbor, edge id) so lookups can binary-search;
       undirected graphs share adj == in_adj, one pass sorts both *)
    let cmp ((a1 : int), (b1 : int)) ((a2 : int), (b2 : int)) =
      if a1 <> a2 then Int.compare a1 a2 else Int.compare b1 b2
    in
    Array.iter (fun row -> Array.sort cmp row) adj;
    if b.b_directed then Array.iter (fun row -> Array.sort cmp row) in_adj;
    let adj_nbr = Array.map (fun row -> Array.map fst row) adj in
    let adj_eid = Array.map (fun row -> Array.map snd row) adj in
    {
      directed = b.b_directed;
      name = b.b_name;
      gtuple = b.b_tuple;
      node_tuples;
      node_names;
      edges;
      edge_names;
      adj;
      in_adj;
      adj_nbr;
      adj_eid;
      by_node_name = { frozen = b.b_by_node_name; added = Smap.empty };
      by_edge_name = { frozen = b.b_by_edge_name; added = Smap.empty };
      stamp = fresh_stamp ();
    }
end

let of_edges ?directed ~n edges =
  let b = Builder.create ?directed () in
  for _ = 1 to n do
    ignore (Builder.add_node b Tuple.empty)
  done;
  List.iter (fun (u, v) -> ignore (Builder.add_edge b u v)) edges;
  Builder.build b

let of_labeled ?directed ~labels edges =
  let b = Builder.create ?directed () in
  Array.iter (fun l -> ignore (Builder.add_labeled_node b l)) labels;
  List.iter (fun (u, v) -> ignore (Builder.add_edge b u v)) edges;
  Builder.build b

(* --- derived graphs ----------------------------------------------------- *)

let induced_subgraph g vs =
  let vs = List.sort_uniq compare vs in
  let b = Builder.create ~directed:g.directed () in
  let old_of_new = Array.of_list vs in
  let new_of_old = Hashtbl.create (List.length vs) in
  Array.iteri
    (fun new_id old_id ->
      ignore (Builder.add_node b ?name:(node_name g old_id) (node_tuple g old_id));
      Hashtbl.add new_of_old old_id new_id)
    old_of_new;
  iter_edges g ~f:(fun _ e ->
      match Hashtbl.find_opt new_of_old e.src, Hashtbl.find_opt new_of_old e.dst with
      | Some u, Some v -> ignore (Builder.add_edge b ~tuple:e.etuple u v)
      | _ -> ());
  (Builder.build b, old_of_new)

let disjoint_union ?name ?(tuple = Tuple.empty) g1 g2 =
  if g1.directed <> g2.directed then
    invalid_arg "Graph.disjoint_union: mixed directedness";
  let b = Builder.create ~directed:g1.directed ?name ~tuple () in
  let fresh_name side nm =
    match nm with
    | None -> None
    | Some n ->
      if Hashtbl.mem b.Builder.b_by_node_name n || Hashtbl.mem b.Builder.b_by_edge_name n
      then Some (side ^ ":" ^ n)
      else Some n
  in
  let copy side g =
    let renum = Array.make (n_nodes g) 0 in
    iter_nodes g ~f:(fun v ->
        renum.(v) <-
          Builder.add_node b ?name:(fresh_name side (node_name g v)) (node_tuple g v));
    iter_edges g ~f:(fun i e ->
        ignore
          (Builder.add_edge b
             ?name:(fresh_name side (edge_name g i))
             ~tuple:e.etuple renum.(e.src) renum.(e.dst)));
    renum
  in
  let r1 = copy "l" g1 in
  let r2 = copy "r" g2 in
  (Builder.build b, r1, r2)

(* --- statistics --------------------------------------------------------- *)

let label_histogram g =
  let h = Hashtbl.create 64 in
  iter_nodes g ~f:(fun v ->
      let l = label g v in
      Hashtbl.replace h l (1 + Option.value (Hashtbl.find_opt h l) ~default:0));
  h

let edge_label_histogram g =
  let h = Hashtbl.create 64 in
  iter_edges g ~f:(fun _ e ->
      let a = label g e.src and b = label g e.dst in
      let key = if g.directed || a <= b then (a, b) else (b, a) in
      Hashtbl.replace h key (1 + Option.value (Hashtbl.find_opt h key) ~default:0));
  h

(* --- equality ----------------------------------------------------------- *)

let equal_structure g1 g2 =
  g1.directed = g2.directed
  && n_nodes g1 = n_nodes g2
  && n_edges g1 = n_edges g2
  && Array.for_all2 Tuple.equal g1.node_tuples g2.node_tuples
  &&
  let edge_set g =
    Array.to_list g.edges
    |> List.map (fun e ->
           let u, v =
             if g.directed || e.src <= e.dst then (e.src, e.dst) else (e.dst, e.src)
           in
           (u, v, e.etuple))
    |> List.sort (fun (a, b, t) (c, d, u) ->
           match compare (a, b) (c, d) with 0 -> Tuple.compare t u | k -> k)
  in
  List.equal
    (fun (a, b, t) (c, d, u) -> a = c && b = d && Tuple.equal t u)
    (edge_set g1) (edge_set g2)

(* --- printing ----------------------------------------------------------- *)

(* The text form is one header line, one line per declaration (nodes,
   then edges) indented by two, and a closing brace. Both printers
   write the lines with the functions below, so they cannot drift. *)

let add_tuple buf t =
  if not (Tuple.is_empty t) then begin
    Buffer.add_char buf ' ';
    Tuple.add_to_buffer buf t
  end

let add_ref buf prefix name i =
  match name with
  | Some n -> Buffer.add_string buf n
  | None ->
    Buffer.add_char buf prefix;
    Buffer.add_string buf (string_of_int i)

let add_header buf g =
  Buffer.add_string buf "graph";
  (match g.name with
  | Some n ->
    Buffer.add_char buf ' ';
    Buffer.add_string buf n
  | None -> ());
  add_tuple buf g.gtuple;
  Buffer.add_string buf " {"

(* declaration [k]: node [k] for [k < n_nodes], else edge [k - n_nodes] *)
let add_decl buf g k =
  let n = n_nodes g in
  if k < n then begin
    Buffer.add_string buf "node ";
    add_ref buf 'v' g.node_names.(k) k;
    add_tuple buf g.node_tuples.(k)
  end
  else begin
    let i = k - n in
    let e = g.edges.(i) in
    Buffer.add_string buf "edge ";
    add_ref buf 'e' g.edge_names.(i) i;
    Buffer.add_string buf " (";
    add_ref buf 'v' g.node_names.(e.src) e.src;
    Buffer.add_string buf ", ";
    add_ref buf 'v' g.node_names.(e.dst) e.dst;
    Buffer.add_char buf ')';
    add_tuple buf e.etuple
  end;
  Buffer.add_char buf ';'

let n_decls g = n_nodes g + n_edges g

let add_to_buffer buf g =
  add_header buf g;
  for k = 0 to n_decls g - 1 do
    Buffer.add_string buf "\n  ";
    add_decl buf g k
  done;
  Buffer.add_string buf "\n}"

let to_string g =
  let buf = Buffer.create (64 + (32 * n_decls g)) in
  add_to_buffer buf g;
  Buffer.contents buf

(* Everything [add_to_buffer] reads besides the node tuples is
   compared physically: graphs built from one compiled template share
   their skeleton's arrays, so the check costs a few pointer compares
   plus one pass over the node tuples. *)
let prints_as a b =
  a.name == b.name && a.gtuple == b.gtuple && a.node_names == b.node_names
  && a.edges == b.edges && a.edge_names == b.edge_names
  && Bool.equal a.directed b.directed
  &&
  let n = Array.length a.node_tuples in
  n = Array.length b.node_tuples
  &&
  let rec go v =
    v = n
    || Tuple.prints_as a.node_tuples.(v) b.node_tuples.(v) && go (v + 1)
  in
  go 0

(* Each line is one string token in a vertical box: no box opens inside
   a line, so a line past the margin or max indent is never split. *)
let pp ppf g =
  let buf = Buffer.create 128 in
  let line add =
    Buffer.clear buf;
    add buf;
    Buffer.contents buf
  in
  Format.fprintf ppf "@[<v 2>%s" (line (fun b -> add_header b g));
  for k = 0 to n_decls g - 1 do
    Format.fprintf ppf "@,%s" (line (fun b -> add_decl b g k))
  done;
  Format.fprintf ppf "@]@,}"
