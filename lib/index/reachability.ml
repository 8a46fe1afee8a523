open Gql_graph

type t =
  | Undirected of { comp : int array; n_comps : int }
  | Directed of {
      comp : int array;  (* node -> scc id *)
      n_comps : int;
      closure : Bytes.t array;  (* scc -> bitset of reachable sccs *)
    }

(* --- undirected: plain union-find --- *)

let build_undirected g =
  let n = Graph.n_nodes g in
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  Graph.iter_edges g ~f:(fun _ e ->
      let a = find e.Graph.src and b = find e.Graph.dst in
      if a <> b then parent.(max a b) <- min a b);
  let comp = Array.make n 0 in
  let ids = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    let r = find v in
    let id =
      match Hashtbl.find_opt ids r with
      | Some id -> id
      | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids r id;
        id
    in
    comp.(v) <- id
  done;
  Undirected { comp; n_comps = Hashtbl.length ids }

(* --- directed: iterative Tarjan SCC + bitset closure --- *)

let tarjan g =
  let n = Graph.n_nodes g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let n_comps = ref 0 in
  (* iterative DFS: frames of (node, next neighbor position) *)
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      let frames = ref [ (root, ref 0) ] in
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, pos) :: rest ->
          let nbrs = Graph.adj_nbrs g v in
          if !pos < Array.length nbrs then begin
            let w = nbrs.(!pos) in
            incr pos;
            if index.(w) < 0 then begin
              index.(w) <- !next_index;
              lowlink.(w) <- !next_index;
              incr next_index;
              stack := w :: !stack;
              on_stack.(w) <- true;
              frames := (w, ref 0) :: !frames
            end
            else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
          end
          else begin
            (* leaving v *)
            (match rest with
            | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(v)
            | [] -> ());
            if lowlink.(v) = index.(v) then begin
              (* pop the SCC *)
              let id = !n_comps in
              incr n_comps;
              let continue = ref true in
              while !continue do
                match !stack with
                | [] -> continue := false
                | w :: tl ->
                  stack := tl;
                  on_stack.(w) <- false;
                  comp.(w) <- id;
                  if w = v then continue := false
              done
            end;
            frames := rest
          end
      done
    end
  done;
  (comp, !n_comps)

let bit_mem bits i = Char.code (Bytes.get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set bits i =
  Bytes.set bits (i lsr 3)
    (Char.chr (Char.code (Bytes.get bits (i lsr 3)) lor (1 lsl (i land 7))))

let bytes_or dst src =
  for i = 0 to Bytes.length dst - 1 do
    Bytes.set dst i (Char.chr (Char.code (Bytes.get dst i) lor Char.code (Bytes.get src i)))
  done

let build_directed g =
  let comp, n_comps = tarjan g in
  (* condensed DAG edges *)
  let dag_succ = Array.make n_comps [] in
  Graph.iter_edges g ~f:(fun _ e ->
      let a = comp.(e.Graph.src) and b = comp.(e.Graph.dst) in
      if a <> b then dag_succ.(a) <- b :: dag_succ.(a));
  (* Tarjan numbers SCCs in reverse topological order: every inter-SCC
     edge (a, b) has comp a > comp b, so filling closures for 0, 1, …
     sees each successor's closure already complete *)
  let words = (n_comps + 7) / 8 in
  let closure = Array.init n_comps (fun _ -> Bytes.make words '\000') in
  for c = 0 to n_comps - 1 do
    bit_set closure.(c) c;
    List.iter
      (fun succ ->
        bit_set closure.(c) succ;
        bytes_or closure.(c) closure.(succ))
      dag_succ.(c)
  done;
  Directed { comp; n_comps; closure }

let build g = if Graph.directed g then build_directed g else build_undirected g

let reachable t u v =
  match t with
  | Undirected { comp; _ } -> comp.(u) = comp.(v)
  | Directed { comp; closure; _ } -> bit_mem closure.(comp.(u)) comp.(v)

let n_components = function
  | Undirected { n_comps; _ } | Directed { n_comps; _ } -> n_comps

let component t v =
  match t with Undirected { comp; _ } | Directed { comp; _ } -> comp.(v)
