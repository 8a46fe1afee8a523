open Gql_graph

type t = {
  r : int;
  graph : Graph.t;
  profiles : Profile.t array;
  nbh_cache : (int, Neighborhood.t) Hashtbl.t;
}

let build ?(r = 1) graph =
  {
    r;
    graph;
    profiles = Profile.all graph ~r;
    nbh_cache = Hashtbl.create 256;
  }

(* Incremental maintenance: the surviving old nodes keep their order,
   so their profiles are the old array less the removed entries, and
   they take the first new ids; only the delta's dirty set and the
   nodes after them (freshly appended ones) pay a BFS.
   Sound only when the delta tracked at least our radius — a narrower
   dirty set could miss a changed ball — so we rebuild in that case.
   Returns the number of profiles recomputed (the "work" the bench and
   oracle tests compare against the full [n] of a rebuild). *)
let update t graph (d : Mutate.delta) =
  if d.d_r < t.r then
    let t' = build ~r:t.r graph in
    (t', Graph.n_nodes graph)
  else begin
    let n = Graph.n_nodes graph in
    let profiles = Array.make n (Profile.of_labels []) in
    (* copy each run of old profiles up to the next removed id, moved
       down by the [i] removed ids below it *)
    let next = ref 0 in
    let copy_run i stop =
      Array.blit t.profiles !next profiles (!next - i) (stop - !next);
      next := stop + 1
    in
    Array.iteri copy_run d.removed;
    let n_kept = Array.length t.profiles - Array.length d.removed in
    copy_run (Array.length d.removed) (Array.length t.profiles);
    let recomputed = ref 0 in
    let recompute v =
      profiles.(v) <- Profile.of_node graph ~r:t.r v;
      incr recomputed
    in
    Array.iter (fun v -> if v < n_kept then recompute v) d.dirty;
    for v = n_kept to n - 1 do
      recompute v
    done;
    ({ r = t.r; graph; profiles; nbh_cache = Hashtbl.create 256 }, !recomputed)
  end

let radius t = t.r
let graph t = t.graph
let profile t v = t.profiles.(v)

let neighborhood t v =
  match Hashtbl.find_opt t.nbh_cache v with
  | Some n -> n
  | None ->
    let n = Neighborhood.make t.graph v ~r:t.r in
    Hashtbl.add t.nbh_cache v n;
    n
