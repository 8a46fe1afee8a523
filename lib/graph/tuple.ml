type t = {
  tag : string option;
  attrs : (string * Value.t) list;  (* insertion order, names unique *)
}

let empty = { tag = None; attrs = [] }

let dedup attrs =
  (* keep the *last* binding for each name, preserving first-seen order *)
  let seen = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace seen k v) attrs;
  let emitted = Hashtbl.create 8 in
  List.filter_map
    (fun (k, _) ->
      if Hashtbl.mem emitted k then None
      else begin
        Hashtbl.add emitted k ();
        Some (k, Hashtbl.find seen k)
      end)
    attrs

let make ?tag attrs = { tag; attrs = dedup attrs }

let tag t = t.tag
let find t name = List.assoc_opt name t.attrs
let get t name = Option.value (find t name) ~default:Value.Null
let mem t name = List.mem_assoc name t.attrs

let set t name v =
  if mem t name then
    { t with attrs = List.map (fun (k, w) -> if k = name then (k, v) else (k, w)) t.attrs }
  else { t with attrs = t.attrs @ [ (name, v) ] }

let remove t name = { t with attrs = List.remove_assoc name t.attrs }
let with_tag t tag = { t with tag }
let bindings t = t.attrs
let names t = List.map fst t.attrs
let cardinal t = List.length t.attrs

let is_empty t = t.tag = None && t.attrs = []

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else
    let tag = match a.tag with Some _ -> a.tag | None -> b.tag in
    { tag; attrs = dedup (a.attrs @ b.attrs) }

let project t keep = { t with attrs = List.filter (fun (k, _) -> List.mem k keep) t.attrs }

let rename t mapping =
  let rename_key k = Option.value (List.assoc_opt k mapping) ~default:k in
  { t with attrs = dedup (List.map (fun (k, v) -> (rename_key k, v)) t.attrs) }

let label t =
  match find t "label" with
  | Some (Value.Str s) -> s
  | Some v -> Value.to_string v
  | None -> Option.value t.tag ~default:""

let sorted_attrs t = List.sort (fun (a, _) (b, _) -> String.compare a b) t.attrs

let compare a b =
  match Option.compare String.compare a.tag b.tag with
  | 0 ->
    List.compare
      (fun (k1, v1) (k2, v2) ->
        match String.compare k1 k2 with 0 -> Value.compare v1 v2 | c -> c)
      (sorted_attrs a) (sorted_attrs b)
  | c -> c

let equal a b = compare a b = 0

let hash t =
  List.fold_left
    (fun acc (k, v) -> acc lxor (Hashtbl.hash k + (31 * Value.hash v)))
    (Hashtbl.hash t.tag) t.attrs

let add_to_buffer buf t =
  Buffer.add_char buf '<';
  (match t.tag with
  | Some tag ->
    Buffer.add_string buf tag;
    if t.attrs <> [] then Buffer.add_char buf ' '
  | None -> ());
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Value.add_to_buffer buf v)
    t.attrs;
  Buffer.add_char buf '>'

let prints_as a b =
  a == b
  || Option.equal String.equal a.tag b.tag
     && List.equal
          (fun (k, v) (k', v') -> String.equal k k' && Value.prints_as v v')
          a.attrs b.attrs

(* The h box never breaks inside the tuple, but opening it past the
   formatter's max indent still breaks the enclosing box before it;
   printers embedding tuples in program text keep that layout. *)
let pp ppf t =
  let buf = Buffer.create 32 in
  add_to_buffer buf t;
  Format.fprintf ppf "@[<h>%s@]" (Buffer.contents buf)
