type t = string array  (* sorted ascending *)

let of_labels ls = Array.of_list (List.sort String.compare ls)

let of_node g ~r v =
  Neighborhood.nodes_within g v ~r |> List.map (Graph.label g) |> of_labels

let all g ~r = Array.init (Graph.n_nodes g) (of_node g ~r)

let contains ~big ~small =
  let nb = Array.length big and ns = Array.length small in
  let rec go ib is =
    if is >= ns then true
    else if ib >= nb then false
    else
      let c = String.compare big.(ib) small.(is) in
      if c = 0 then go (ib + 1) (is + 1)
      else if c < 0 then go (ib + 1) is
      else false
  in
  go 0 0

let size = Array.length
let labels t = Array.to_list t
let equal a b = a = b

let pp ppf t =
  (* a separator keeps the rendering injective: ["ab";"c"] and
     ["a";"bc"] concatenated are both "abc", but "ab,c" <> "a,bc" *)
  Array.iteri
    (fun i l ->
      if i > 0 then Format.pp_print_char ppf ',';
      Format.pp_print_string ppf l)
    t
