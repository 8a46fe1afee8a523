open Gql_graph

type term =
  | Var of string
  | Const of Value.t

type atom = {
  name : string;
  args : term list;
}

type cmp_op = Ceq | Cne | Clt | Cle | Cgt | Cge

type literal =
  | Pos of atom
  | Cmp of cmp_op * term * term

type rule = {
  head : atom;
  body : literal list;
}

let atom name args = { name; args }

exception Unsafe_rule of string

(* fact store: predicate name -> set of tuples *)
type db = {
  facts : (string, (Value.t list, unit) Hashtbl.t) Hashtbl.t;
  mutable rules : rule list;
}

let create () = { facts = Hashtbl.create 16; rules = [] }

let relation db name =
  match Hashtbl.find_opt db.facts name with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 64 in
    Hashtbl.add db.facts name h;
    h

let add_fact db name vals =
  Hashtbl.replace (relation db name) vals ()

let add_rule db rule = db.rules <- db.rules @ [ rule ]

type binding = (string * Value.t) list

let subst (env : binding) = function
  | Const v -> Some v
  | Var x -> List.assoc_opt x env

let unify_args env args tuple =
  let rec go env args tuple =
    match args, tuple with
    | [], [] -> Some env
    | arg :: args, v :: tuple ->
      (match subst env arg with
      | Some bound -> if Value.equal bound v then go env args tuple else None
      | None ->
        (match arg with
        | Var x -> go ((x, v) :: env) args tuple
        | Const _ -> None))
    | _ -> None
  in
  go env args tuple

let cmp_holds op a b =
  let c = Value.compare a b in
  match op with
  | Ceq -> c = 0
  | Cne -> c <> 0
  | Clt -> c < 0
  | Cle -> c <= 0
  | Cgt -> c > 0
  | Cge -> c >= 0

(* evaluate the rule body left-to-right over the fact store, calling
   [emit] with each complete binding *)
let eval_rule db rule emit =
  let rec go env = function
    | [] -> emit env
    | Pos a :: rest ->
      Hashtbl.iter
        (fun tuple () ->
          match unify_args env a.args tuple with
          | Some env' -> go env' rest
          | None -> ())
        (relation db a.name)
    | Cmp (op, l, r) :: rest ->
      let value side t =
        match subst env t with
        | Some v -> v
        | None ->
          raise
            (Unsafe_rule
               (Printf.sprintf "comparison %s operand unbound in rule for %s" side
                  rule.head.name))
      in
      if cmp_holds op (value "left" l) (value "right" r) then go env rest
  in
  go [] rule.body

let head_tuple rule env =
  List.map
    (fun t ->
      match subst env t with
      | Some v -> v
      | None ->
        raise
          (Unsafe_rule
             (Printf.sprintf "head variable unbound in rule for %s" rule.head.name)))
    rule.head.args

let solve db =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun rule ->
        let rel = relation db rule.head.name in
        let fresh = ref [] in
        eval_rule db rule (fun env ->
            let tuple = head_tuple rule env in
            if not (Hashtbl.mem rel tuple) then fresh := tuple :: !fresh);
        List.iter
          (fun tuple ->
            if not (Hashtbl.mem rel tuple) then begin
              Hashtbl.replace rel tuple ();
              changed := true
            end)
          !fresh)
      db.rules
  done

let query db a =
  let results = ref [] in
  Hashtbl.iter
    (fun tuple () ->
      match unify_args [] a.args tuple with
      | Some _ -> results := tuple :: !results
      | None -> ())
    (relation db a.name);
  !results

let holds db name vals = Hashtbl.mem (relation db name) vals
let n_facts db name = Hashtbl.length (relation db name)
