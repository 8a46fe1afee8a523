open Gql_graph

type t = {
  len : int;
  n : int;
  (* feature -> graph id -> multiplicity *)
  postings : (string, (int, int) Hashtbl.t) Hashtbl.t;
}

(* enumerate simple paths of up to [max_len] edges as node-id lists,
   canonicalized so each undirected path is produced once *)
let simple_paths ~max_len g =
  let acc = ref [] in
  let rec extend path last depth =
    (* [path] is reversed, [last] its head *)
    if depth < max_len then
      Array.iter
        (fun w ->
          if not (List.mem w path) then begin
            let path' = w :: path in
            (* canonical: emit only if the forward reading is minimal *)
            let fwd = List.rev path' in
            if Graph.directed g || fwd <= path' then acc := fwd :: !acc;
            extend path' w (depth + 1)
          end)
        (Graph.adj_nbrs g last)
  in
  Graph.iter_nodes g ~f:(fun v ->
      acc := [ v ] :: !acc;
      extend [ v ] v 0);
  !acc

let labels_complete g path =
  List.for_all (fun v -> Graph.label g v <> "") path

(* the feature must be canonical in *label* space: the same undirected
   path read from either end must produce the same string, whatever the
   node ids are *)
let feature_of g path =
  let fwd = List.map (Graph.label g) path in
  let seq = if Graph.directed g then fwd else min fwd (List.rev fwd) in
  String.concat "/" seq

let features_of_graph ~max_len g =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun path ->
      if labels_complete g path then begin
        let f = feature_of g path in
        Hashtbl.replace counts f (1 + Option.value (Hashtbl.find_opt counts f) ~default:0)
      end)
    (simple_paths ~max_len g);
  Hashtbl.fold (fun f c acc -> (f, c) :: acc) counts [] |> List.sort compare

let build ?(max_len = 3) graphs =
  let postings = Hashtbl.create 1024 in
  Array.iteri
    (fun id g ->
      List.iter
        (fun (f, c) ->
          let per_graph =
            match Hashtbl.find_opt postings f with
            | Some h -> h
            | None ->
              let h = Hashtbl.create 8 in
              Hashtbl.add postings f h;
              h
          in
          Hashtbl.replace per_graph id c)
        (features_of_graph ~max_len g))
    graphs;
  { len = max_len; n = Array.length graphs; postings }

let max_len t = t.len
let n_graphs t = t.n
let n_features t = Hashtbl.length t.postings

let candidates t pattern =
  let features = features_of_graph ~max_len:t.len pattern in
  match features with
  | [] -> List.init t.n Fun.id  (* nothing to filter on *)
  | _ ->
    (* survivors must carry every feature with enough multiplicity *)
    let surviving = Hashtbl.create 64 in
    let first = ref true in
    List.iter
      (fun (f, need) ->
        let have =
          Option.value (Hashtbl.find_opt t.postings f) ~default:(Hashtbl.create 1)
        in
        if !first then begin
          first := false;
          Hashtbl.iter (fun id c -> if c >= need then Hashtbl.add surviving id ()) have
        end
        else begin
          let keep = Hashtbl.create (Hashtbl.length surviving) in
          Hashtbl.iter
            (fun id () ->
              match Hashtbl.find_opt have id with
              | Some c when c >= need -> Hashtbl.add keep id ()
              | _ -> ())
            surviving;
          Hashtbl.reset surviving;
          Hashtbl.iter (Hashtbl.add surviving) keep
        end)
      features;
    Hashtbl.fold (fun id () acc -> id :: acc) surviving [] |> List.sort compare

let filter_ratio t pattern =
  if t.n = 0 then 0.0
  else float_of_int (List.length (candidates t pattern)) /. float_of_int t.n
