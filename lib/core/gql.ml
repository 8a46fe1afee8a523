let eval_err fmt =
  Format.kasprintf (fun s -> raise (Error.E (Error.Eval s))) fmt

let wrap src f =
  try f () with
  | Lexer.Error (msg, off) ->
    let line, col = Parser.position src off in
    raise (Error.E (Error.Parse { line; col; msg = "lexical: " ^ msg }))
  | Parser.Error (msg, off) ->
    let line, col = Parser.position src off in
    raise (Error.E (Error.Parse { line; col; msg }))
  | e -> (
    match Error.classify e with
    | Some t -> raise (Error.E t)
    | None -> raise e)

let parse_program src = wrap src (fun () -> Parser.program src)
let parse_graph_decl src = wrap src (fun () -> Parser.graph src)

let graph_of_string ?(defs = []) src =
  wrap src (fun () -> Motif.to_graph ~defs:(Motif.defs_of_list defs) (Parser.graph src))

let collection_of_string src =
  wrap src (fun () ->
      let decls =
        List.filter_map
          (function Ast.Sgraph g -> Some g | _ -> None)
          (Parser.program src)
      in
      (* when two decls share a name, a reference resolves to the first *)
      let by_name = Hashtbl.create 16 in
      List.iter
        (fun d ->
          match d.Ast.g_name with
          | Some n when not (Hashtbl.mem by_name n) -> Hashtbl.add by_name n d
          | _ -> ())
        decls;
      List.map (Motif.to_graph ~defs:(Hashtbl.find_opt by_name)) decls)

let patterns_of_string ?(defs = []) ?max_depth src =
  wrap src (fun () ->
      Motif.flat_patterns ~defs:(Motif.defs_of_list defs) ?max_depth
        (Parser.graph src)
      |> List.of_seq)

let pattern_of_string ?defs ?max_depth src =
  match patterns_of_string ?defs ?max_depth src with
  | p :: _ -> p
  | [] -> eval_err "pattern has no derivation"

let find_matches ?strategy ?exhaustive ?limit ?budget ~pattern g =
  let patterns = patterns_of_string pattern in
  wrap pattern (fun () ->
      Algebra.select ?strategy ?exhaustive ?limit ?budget ~patterns
        [ Algebra.G g ])
  |> List.filter_map (function Algebra.M m -> Some m | Algebra.G _ -> None)

let count_matches ?strategy ~pattern g =
  List.length (find_matches ?strategy ~pattern g)

let path_patterns_of_string ?(defs = []) ?max_depth ?truncated src =
  wrap src (fun () ->
      Motif.path_patterns ~defs:(Motif.defs_of_list defs) ?max_depth ?truncated
        (Parser.graph src)
      |> List.of_seq)

let run_query ?docs ?strategy ?max_depth ?max_derivations ?budget ?metrics
    ?selector ?writer src =
  wrap src (fun () ->
      Eval.run ?docs ?strategy ?max_depth ?max_derivations ?budget ?metrics
        ?selector ?writer (Parser.program src))
