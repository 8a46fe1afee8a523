open Gql_graph

module Smap = Btree.Make (String)

type t = {
  by_label : int list Smap.t;  (* label -> node ids, descending (reversed on query) *)
  freqs : (string * int) list;  (* descending frequency *)
}

let rebuild_freqs by_label =
  Smap.to_seq by_label
  |> Seq.map (fun (l, vs) -> (l, List.length vs))
  |> List.of_seq
  |> List.sort (fun (l1, f1) (l2, f2) ->
         match compare f2 f1 with 0 -> String.compare l1 l2 | c -> c)

let build g =
  let by_label =
    Graph.fold_nodes g ~init:(Smap.empty ()) ~f:(fun acc v ->
        let l = Graph.label g v in
        Smap.update l
          (function None -> Some [ v ] | Some vs -> Some (v :: vs))
          acc)
  in
  { by_label; freqs = rebuild_freqs by_label }

(* An update is genuinely incremental only when node ids are stable: a
   deletion renumbers every higher id, which would touch most postings
   anyway, so that case falls back to a full rebuild. With stable ids
   only the dirty nodes can have a changed label (the dirty set covers
   the write's whole r-ball, so it over-approximates the relabels), plus
   any appended nodes. *)
let update t ~old_graph graph (d : Mutate.delta) =
  let old_n = Graph.n_nodes old_graph and n = Graph.n_nodes graph in
  if Array.length d.removed > 0 then build graph
  else begin
    let touched = Hashtbl.create 16 in
    let remove_from l v m =
      Hashtbl.replace touched l ();
      Smap.update l
        (function
          | None -> None
          | Some vs -> (
            match List.filter (fun u -> u <> v) vs with
            | [] -> None
            | vs -> Some vs))
        m
    in
    let add_to l v m =
      Hashtbl.replace touched l ();
      Smap.update l
        (function None -> Some [ v ] | Some vs -> Some (v :: vs))
        m
    in
    let m = ref t.by_label in
    Array.iter
      (fun v ->
        if v < old_n then begin
          let old_l = Graph.label old_graph v and new_l = Graph.label graph v in
          if not (String.equal old_l new_l) then
            m := add_to new_l v (remove_from old_l v !m)
        end)
      d.dirty;
    for v = old_n to n - 1 do
      m := add_to (Graph.label graph v) v !m
    done;
    (* restore the descending-id posting order on touched labels *)
    Hashtbl.iter
      (fun l () ->
        m :=
          Smap.update l
            (Option.map (fun vs -> List.sort (fun a b -> compare b a) vs))
            !m)
      touched;
    { by_label = !m; freqs = rebuild_freqs !m }
  end

let nodes_with_label t l =
  match Smap.find l t.by_label with None -> [] | Some vs -> List.rev vs

let frequency t l =
  match Smap.find l t.by_label with None -> 0 | Some vs -> List.length vs

let labels t = Smap.to_seq t.by_label |> Seq.map fst |> List.of_seq
let distinct_labels t = Smap.cardinal t.by_label

let top_frequent t k =
  List.filteri (fun i _ -> i < k) t.freqs |> List.map fst

let range t ~lo ~hi =
  Smap.range ~lo:(Smap.Key_incl lo) ~hi:(Smap.Key_incl hi) t.by_label
  |> Seq.map (fun (l, vs) -> (l, List.rev vs))
  |> List.of_seq
