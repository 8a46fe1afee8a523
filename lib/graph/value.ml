type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let kind_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Str x, Str y -> Stdlib.compare x y
  | _ -> Stdlib.compare (kind_rank a) (kind_rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 17
  | Bool b -> Hashtbl.hash b
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s

let as_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> type_error "expected a number, got %s" (match v with
      | Null -> "null" | Bool _ -> "a boolean" | Str _ -> "a string"
      | Int _ | Float _ -> assert false)

let arith name int_op float_op a b =
  match a, b with
  | Int x, Int y -> Int (int_op x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (float_op (as_float a) (as_float b))
  | _ -> type_error "%s: expected numbers" name

let add a b =
  match a, b with
  | Str x, Str y -> Str (x ^ y)
  | _ -> arith "+" ( + ) ( +. ) a b

let sub = arith "-" ( - ) ( -. )
let mul = arith "*" ( * ) ( *. )

let div a b =
  match a, b with
  | Int x, Int y -> if y = 0 then type_error "division by zero" else Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (as_float a /. as_float b)
  | _ -> type_error "/: expected numbers"

let to_bool = function
  | Bool b -> b
  | _ -> type_error "expected a boolean"

let logical_and a b = Bool (to_bool a && to_bool b)
let logical_or a b = Bool (to_bool a || to_bool b)
let logical_not a = Bool (not (to_bool a))

(* [%S] is exactly [String.escaped] between double quotes *)
let add_to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (Printf.sprintf "%g" f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (String.escaped s);
    Buffer.add_char buf '"'

let prints_as a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y ->
    (* by bits: [0.0] and [-0.0] are equal but print differently *)
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Str x, Str y -> String.equal x y
  | _ -> false

let to_string v =
  let buf = Buffer.create 16 in
  add_to_buffer buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

let of_literal s =
  match int_of_string_opt s with
  | Some i -> Int i
  | None ->
    match float_of_string_opt s with
    | Some f -> Float f
    | None ->
      match s with
      | "true" -> Bool true
      | "false" -> Bool false
      | "null" -> Null
      | _ -> Str s
