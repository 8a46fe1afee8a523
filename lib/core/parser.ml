open Gql_graph

exception Error of string * int

type state = {
  toks : (Lexer.token * int) array;
  mutable pos : int;
  mutable depth : int;  (* nested constructs open at [pos] *)
}

let peek st = fst st.toks.(st.pos)
let peek2 st = if st.pos + 1 < Array.length st.toks then fst st.toks.(st.pos + 1) else Lexer.EOF
let offset st = snd st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1

let fail st msg =
  raise (Error (Printf.sprintf "%s (found %s)" msg (Lexer.token_to_string (peek st)), offset st))

(* Nesting bound: parenthesised and unary expressions and nested
   pattern blocks recurse once per level, and a program can arrive over
   the wire ([gqlsh serve]); past this depth the parse fails with a
   typed error instead of growing the stack without bound. The same
   bound as [Protocol.Json]. *)
let max_depth = 512

let nested st f =
  if st.depth >= max_depth then
    fail st (Printf.sprintf "nesting deeper than %d levels" max_depth);
  st.depth <- st.depth + 1;
  let x = f () in
  st.depth <- st.depth - 1;
  x

let expect st tok msg =
  if peek st = tok then advance st else fail st msg

let accept st tok =
  if peek st = tok then begin
    advance st;
    true
  end
  else false

(* the chapter's figures omit the ';' before a closing '}' (e.g. "| { node v0 }"); accept that *)
let expect_semi st msg =
  if peek st = Lexer.SEMI then advance st
  else if peek st = Lexer.RBRACE then ()
  else fail st msg

let ident st =
  match peek st with
  | Lexer.ID s ->
    advance st;
    s
  | _ -> fail st "expected an identifier"

let path st =
  let first = ident st in
  let rec go acc = if accept st Lexer.DOT then go (ident st :: acc) else List.rev acc in
  go [ first ]

(* --- expressions --------------------------------------------------------- *)

let rec expr st = or_expr st

and or_expr st =
  let lhs = and_expr st in
  if accept st Lexer.PIPE then Pred.Binop (Pred.Or, lhs, or_expr st) else lhs

and and_expr st =
  let lhs = cmp_expr st in
  if accept st Lexer.AMP then Pred.Binop (Pred.And, lhs, and_expr st) else lhs

and cmp_expr st =
  let lhs = add_expr st in
  let op =
    match peek st with
    | Lexer.EQEQ | Lexer.EQ -> Some Pred.Eq
    | Lexer.NEQ -> Some Pred.Ne
    | Lexer.LANGLE -> Some Pred.Lt
    | Lexer.RANGLE -> Some Pred.Gt
    | Lexer.LE -> Some Pred.Le
    | Lexer.GE -> Some Pred.Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    Pred.Binop (op, lhs, add_expr st)

and add_expr st =
  let rec go lhs =
    match peek st with
    | Lexer.PLUS ->
      advance st;
      go (Pred.Binop (Pred.Add, lhs, mul_expr st))
    | Lexer.MINUS ->
      advance st;
      go (Pred.Binop (Pred.Sub, lhs, mul_expr st))
    | _ -> lhs
  in
  go (mul_expr st)

and mul_expr st =
  let rec go lhs =
    match peek st with
    | Lexer.STAR ->
      advance st;
      go (Pred.Binop (Pred.Mul, lhs, unary_expr st))
    | Lexer.SLASH ->
      advance st;
      go (Pred.Binop (Pred.Div, lhs, unary_expr st))
    | _ -> lhs
  in
  go (unary_expr st)

and unary_expr st =
  match peek st with
  | Lexer.BANG ->
    nested st (fun () ->
        advance st;
        Pred.Not (unary_expr st))
  | Lexer.MINUS ->
    nested st (fun () ->
        advance st;
        Pred.Binop (Pred.Sub, Pred.Lit (Value.Int 0), unary_expr st))
  | _ -> primary_expr st

and primary_expr st =
  match peek st with
  | Lexer.INT i ->
    advance st;
    Pred.Lit (Value.Int i)
  | Lexer.FLOAT f ->
    advance st;
    Pred.Lit (Value.Float f)
  | Lexer.STRING s ->
    advance st;
    Pred.Lit (Value.Str s)
  | Lexer.TRUE ->
    advance st;
    Pred.Lit (Value.Bool true)
  | Lexer.FALSE ->
    advance st;
    Pred.Lit (Value.Bool false)
  | Lexer.NULL ->
    advance st;
    Pred.Lit Value.Null
  | Lexer.LPAREN ->
    nested st (fun () ->
        advance st;
        let e = expr st in
        expect st Lexer.RPAREN "expected ')'";
        e)
  | Lexer.ID _ -> Pred.Attr (path st)
  | _ -> fail st "expected an expression"

(* --- tuples -------------------------------------------------------------- *)

(* <tag k=v ...> — field values are additive expressions so that '>'
   unambiguously closes the tuple *)
let tuple st =
  expect st Lexer.LANGLE "expected '<'";
  let tag =
    match peek st, peek2 st with
    | Lexer.ID s, t when t <> Lexer.EQ ->
      advance st;
      Some s
    | _ -> None
  in
  let fields = ref [] in
  while peek st <> Lexer.RANGLE do
    let name = ident st in
    expect st Lexer.EQ "expected '=' in tuple field";
    let v = add_expr st in
    fields := (name, v) :: !fields;
    ignore (accept st Lexer.COMMA)
  done;
  advance st;
  { Ast.tag; fields = List.rev !fields }

let opt_tuple st = if peek st = Lexer.LANGLE then Some (tuple st) else None
let opt_where st = if accept st Lexer.WHERE then Some (expr st) else None

(* --- graph bodies -------------------------------------------------------- *)

let node_decl st =
  match peek st with
  | Lexer.ID _ ->
    let p = path st in
    (match p with
    | [ name ] ->
      let t = opt_tuple st in
      let w = opt_where st in
      { Ast.n_name = Some name; n_tuple = t; n_where = w; n_copy = None }
    | _ -> { Ast.n_name = None; n_tuple = None; n_where = None; n_copy = Some p })
  | _ ->
    let t = opt_tuple st in
    let w = opt_where st in
    { Ast.n_name = None; n_tuple = t; n_where = w; n_copy = None }

(* [*] = one or more hops; [*k] = exactly k; [*k..m] = k to m; [*k..] =
   k or more (unbounded) *)
let repetition st =
  if accept st Lexer.STAR then
    match peek st with
    | Lexer.INT min ->
      advance st;
      if min < 0 then fail st "repetition bound must be non-negative";
      if accept st Lexer.DOTDOT then (
        match peek st with
        | Lexer.INT max ->
          advance st;
          if max < min then fail st "empty repetition range";
          Some (min, Some max)
        | _ -> Some (min, None))
      else Some (min, Some min)
    | _ -> Some (1, None)
  else None

let edge_decl st =
  let name = match peek st with Lexer.ID _ -> Some (ident st) | _ -> None in
  expect st Lexer.LPAREN "expected '(' in edge declaration";
  let src = path st in
  expect st Lexer.COMMA "expected ',' between edge endpoints";
  let dst = path st in
  expect st Lexer.RPAREN "expected ')' in edge declaration";
  let rep = repetition st in
  if rep <> None && name <> None then
    fail st "a repeated edge cannot be named (it stands for a whole walk)";
  let t = opt_tuple st in
  let w = opt_where st in
  { Ast.e_name = name; e_src = src; e_dst = dst; e_rep = rep; e_tuple = t;
    e_where = w }

let rec comma_list st item =
  let x = item st in
  if accept st Lexer.COMMA then x :: comma_list st item else [ x ]

let rec member st =
  match peek st with
  | Lexer.NODE ->
    advance st;
    let ns = comma_list st node_decl in
    expect_semi st "expected ';' after node declarations";
    Ast.Nodes ns
  | Lexer.EDGE ->
    advance st;
    let es = comma_list st edge_decl in
    expect_semi st "expected ';' after edge declarations";
    Ast.Edges es
  | Lexer.GRAPH ->
    advance st;
    let ref_item st =
      let name = ident st in
      let alias = if accept st Lexer.AS then Some (ident st) else None in
      (name, alias)
    in
    let rs = comma_list st ref_item in
    expect_semi st "expected ';' after graph references";
    Ast.Graph_refs rs
  | Lexer.UNIFY ->
    advance st;
    let paths = comma_list st path in
    if List.length paths < 2 then fail st "unify needs at least two names";
    let w = opt_where st in
    expect_semi st "expected ';' after unify";
    Ast.Unify (paths, w)
  | Lexer.EXPORT ->
    advance st;
    let exp_item st =
      let p = path st in
      expect st Lexer.AS "expected 'as' in export";
      let name = ident st in
      (p, name)
    in
    let es = comma_list st exp_item in
    expect_semi st "expected ';' after export";
    Ast.Exports es
  | Lexer.LBRACE ->
    let block st =
      nested st (fun () ->
          expect st Lexer.LBRACE "expected '{'";
          let ms = members st in
          expect st Lexer.RBRACE "expected '}'";
          ms)
    in
    let first = block st in
    let rec alts acc = if accept st Lexer.PIPE then alts (block st :: acc) else List.rev acc in
    let branches = alts [ first ] in
    ignore (accept st Lexer.SEMI);
    Ast.Alt branches
  | _ -> fail st "expected a member declaration"

and members st =
  if peek st = Lexer.RBRACE then []
  else
    let m = member st in
    m :: members st

let graph_decl st =
  expect st Lexer.GRAPH "expected 'graph'";
  let name = match peek st with Lexer.ID _ -> Some (ident st) | _ -> None in
  let t = opt_tuple st in
  expect st Lexer.LBRACE "expected '{' after graph header";
  let ms = members st in
  expect st Lexer.RBRACE "expected '}' closing graph body";
  let w = opt_where st in
  { Ast.g_name = name; g_tuple = t; g_members = ms; g_where = w }

(* --- statements ---------------------------------------------------------- *)

let template st =
  match peek st with
  | Lexer.GRAPH -> Ast.Tgraph (graph_decl st)
  | Lexer.ID _ -> Ast.Tvar (ident st)
  | _ -> fail st "expected a graph template"

let doc_name st =
  expect st Lexer.DOC "expected 'doc'";
  expect st Lexer.LPAREN "expected '(' after doc";
  let source =
    match peek st with
    | Lexer.STRING s ->
      advance st;
      s
    | _ -> fail st "expected a collection name string in doc(...)"
  in
  expect st Lexer.RPAREN "expected ')' after collection name";
  source

(* A statement source: [doc("D")], or the contextual [view("v")] form
   encoded as a "view:v" source name (Ast.view_source). *)
let source_name st =
  match peek st with
  | Lexer.ID "view" ->
    advance st;
    expect st Lexer.LPAREN "expected '(' after view";
    let name =
      match peek st with
      | Lexer.STRING s ->
        advance st;
        s
      | _ -> fail st "expected a view name string in view(...)"
    in
    expect st Lexer.RPAREN "expected ')' after view name";
    Ast.view_source name
  | _ -> doc_name st

let doc_ref st =
  let d = doc_name st in
  expect st Lexer.DOT "expected '.' naming a graph after doc(...)";
  let g = ident st in
  { Ast.d_doc = d; d_graph = g }

(* doc("D").G.x — a node or edge inside a stored graph *)
let doc_member st =
  let r = doc_ref st in
  expect st Lexer.DOT "expected '.' naming a node or edge";
  let m = ident st in
  (r, m)

let dml st =
  match peek st with
  | Lexer.INSERT ->
    advance st;
    (match peek st with
    | Lexer.NODE ->
      advance st;
      let name = ident st in
      let t = opt_tuple st in
      expect st Lexer.INTO "expected 'into' in insert";
      let r = doc_ref st in
      Ast.Insert_node { i_name = name; i_tuple = t; i_into = r }
    | Lexer.EDGE ->
      advance st;
      let name = if peek st = Lexer.LPAREN then None else Some (ident st) in
      expect st Lexer.LPAREN "expected '(' in insert edge";
      let src = ident st in
      expect st Lexer.COMMA "expected ',' between edge endpoints";
      let dst = ident st in
      expect st Lexer.RPAREN "expected ')' in insert edge";
      let t = opt_tuple st in
      expect st Lexer.INTO "expected 'into' in insert";
      let r = doc_ref st in
      Ast.Insert_edge
        { i_name = name; i_src = src; i_dst = dst; i_tuple = t; i_into = r }
    | Lexer.GRAPH ->
      let g = graph_decl st in
      expect st Lexer.INTO "expected 'into' in insert";
      let d = doc_name st in
      Ast.Insert_graph { i_decl = g; i_doc = d }
    | _ -> fail st "expected 'node', 'edge' or 'graph' after 'insert'")
  | Lexer.UPDATE ->
    advance st;
    let kind =
      match peek st with
      | Lexer.NODE ->
        advance st;
        `Node
      | Lexer.EDGE ->
        advance st;
        `Edge
      | _ -> fail st "expected 'node' or 'edge' after 'update'"
    in
    let r, m = doc_member st in
    expect st Lexer.SET "expected 'set' in update";
    let t = tuple st in
    (match kind with
    | `Node -> Ast.Update_node { u_ref = r; u_node = m; u_tuple = t }
    | `Edge -> Ast.Update_edge { u_ref = r; u_edge = m; u_tuple = t })
  | Lexer.DELETE ->
    advance st;
    (match peek st with
    | Lexer.NODE ->
      advance st;
      let r, m = doc_member st in
      Ast.Delete_node { x_ref = r; x_node = m }
    | Lexer.EDGE ->
      advance st;
      let r, m = doc_member st in
      Ast.Delete_edge { x_ref = r; x_edge = m }
    | Lexer.GRAPH ->
      advance st;
      Ast.Delete_graph (doc_ref st)
    | _ -> fail st "expected 'node', 'edge' or 'graph' after 'delete'")
  | _ -> fail st "expected a DML statement"

(* find / get / path / from / to / over / within / shortest / subgraph
   are contextual keywords: plain identifiers everywhere except at the
   head of a path-query statement, so existing programs keep parsing. *)
let word st s =
  match peek st with
  | Lexer.ID w when w = s ->
    advance st;
    true
  | _ -> false

let expect_word st s =
  if not (word st s) then fail st (Printf.sprintf "expected '%s'" s)

let opt_over st =
  if word st "over" then begin
    let t = opt_tuple st in
    let rep = repetition st in
    (t, Option.value rep ~default:(1, None))
  end
  else (None, (1, None))

let path_query st =
  if word st "find" then begin
    let shortest = word st "shortest" in
    expect_word st "path";
    expect_word st "from";
    let from_ = node_decl st in
    expect_word st "to";
    let to_ = node_decl st in
    let edge, rep = opt_over st in
    expect st Lexer.IN "expected 'in'";
    let source = source_name st in
    { Ast.q_kind = `Path shortest; q_from = from_; q_to = Some to_;
      q_edge = edge; q_rep = rep; q_source = source }
  end
  else begin
    expect_word st "get";
    expect_word st "subgraph";
    expect_word st "from";
    let from_ = node_decl st in
    expect_word st "within";
    let radius =
      match peek st with
      | Lexer.INT r when r >= 0 ->
        advance st;
        r
      | _ -> fail st "expected a non-negative radius after 'within'"
    in
    let edge, rep = opt_over st in
    expect st Lexer.IN "expected 'in'";
    let source = source_name st in
    { Ast.q_kind = `Subgraph radius; q_from = from_; q_to = None;
      q_edge = edge; q_rep = rep; q_source = source }
  end

let flwr st =
  expect st Lexer.FOR "expected 'for'";
  let pattern =
    match peek st with
    | Lexer.GRAPH -> `Inline (graph_decl st)
    | Lexer.ID _ -> `Named (ident st)
    | _ -> fail st "expected a pattern name or inline pattern after 'for'"
  in
  let exhaustive = accept st Lexer.EXHAUSTIVE in
  expect st Lexer.IN "expected 'in'";
  let source = source_name st in
  let w = opt_where st in
  let body =
    match peek st with
    | Lexer.RETURN ->
      advance st;
      Ast.Return (template st)
    | Lexer.LET ->
      advance st;
      let v = ident st in
      if not (accept st Lexer.ASSIGN || accept st Lexer.EQ) then
        fail st "expected ':=' or '=' in let binding";
      Ast.Let (v, template st)
    | _ -> fail st "expected 'return' or 'let' in FLWR expression"
  in
  { Ast.f_pattern = pattern; f_exhaustive = exhaustive; f_source = source;
    f_where = w; f_body = body }

let statement st =
  match peek st with
  | Lexer.GRAPH ->
    let g = graph_decl st in
    ignore (accept st Lexer.SEMI);
    Ast.Sgraph g
  | Lexer.FOR ->
    let f = flwr st in
    ignore (accept st Lexer.SEMI);
    Ast.Sflwr f
  | Lexer.INSERT | Lexer.UPDATE | Lexer.DELETE ->
    let d = dml st in
    ignore (accept st Lexer.SEMI);
    Ast.Sdml d
  | Lexer.ID _ when peek2 st = Lexer.ASSIGN ->
    let v = ident st in
    expect st Lexer.ASSIGN "expected ':='";
    let t = template st in
    ignore (accept st Lexer.SEMI);
    Ast.Sassign (v, t)
  | Lexer.ID ("find" | "get") ->
    let q = path_query st in
    ignore (accept st Lexer.SEMI);
    Ast.Spath q
  (* create / drop / view / materialized / as are contextual too: plain
     identifiers everywhere except at the head of a view statement *)
  | Lexer.ID "create" ->
    advance st;
    let materialized = word st "materialized" in
    expect_word st "view";
    let name = ident st in
    expect st Lexer.AS "expected 'as' after the view name";
    let q = flwr st in
    ignore (accept st Lexer.SEMI);
    Ast.Screate_view { Ast.v_name = name; v_materialized = materialized; v_query = q }
  | Lexer.ID "drop" ->
    advance st;
    expect_word st "view";
    let name = ident st in
    ignore (accept st Lexer.SEMI);
    Ast.Sdrop_view name
  | _ ->
    fail st
      "expected a statement ('graph', 'for', insert/update/delete, or an \
       assignment)"

let run_parser src p =
  let st = { toks = Lexer.tokenize src; pos = 0; depth = 0 } in
  let result = p st in
  if peek st <> Lexer.EOF then fail st "trailing input after statement";
  result

let program src =
  run_parser src (fun st ->
      let rec go acc =
        if peek st = Lexer.EOF then List.rev acc else go (statement st :: acc)
      in
      go [])

let graph src =
  run_parser src (fun st ->
      let g = graph_decl st in
      ignore (accept st Lexer.SEMI);
      g)

let expression src = run_parser src expr

let position src off =
  let line = ref 1 and col = ref 1 in
  String.iteri
    (fun i c ->
      if i < off then
        if c = '\n' then begin
          incr line;
          col := 1
        end
        else incr col)
    src;
  (!line, !col)
