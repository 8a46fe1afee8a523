module Budget = Gql_matcher.Budget

type t =
  | Usage of string
  | Parse of { line : int; col : int; msg : string }
  | Eval of string
  | Corrupt of string
  | Deadline of string
  | Protocol of string
  | Unsupported_distributed of string
  | Shard_failure of string

exception E of t

let raise_ t = raise (E t)

let to_string = function
  | Usage msg -> Printf.sprintf "usage error: %s" msg
  | Parse { line; col; msg } ->
    Printf.sprintf "parse error at %d:%d: %s" line col msg
  | Eval msg -> Printf.sprintf "evaluation error: %s" msg
  | Corrupt msg -> Printf.sprintf "corrupt store: %s" msg
  | Deadline msg -> Printf.sprintf "deadline exceeded: %s" msg
  | Protocol msg -> Printf.sprintf "protocol error: %s" msg
  | Unsupported_distributed msg ->
    Printf.sprintf "unsupported distributed query: %s" msg
  | Shard_failure msg -> Printf.sprintf "shard failure: %s" msg

let pp fmt t = Format.pp_print_string fmt (to_string t)

let exit_code = function
  | Usage _ -> 1
  | Parse _ -> 2
  | Eval _ -> 3
  | Corrupt _ -> 4
  | Deadline _ -> 124
  | Protocol _ -> 5
  | Unsupported_distributed _ -> 6
  | Shard_failure _ -> 7

(* Wire statuses: the stable strings a server puts in a response's
   "status" field. The message travels separately in "error", so a
   client can rebuild the exact taxonomy value with [of_wire_status]
   and exit through the same code the server would have. *)
let wire_status = function
  | Usage _ -> "usage"
  | Parse _ -> "parse"
  | Eval _ -> "eval"
  | Corrupt _ -> "corrupt"
  | Deadline _ -> "deadline"
  | Protocol _ -> "protocol"
  | Unsupported_distributed _ -> "unsupported-distributed"
  | Shard_failure _ -> "shard-failure"

let of_wire_status status ~msg =
  match status with
  | "usage" -> Some (Usage msg)
  | "parse" -> Some (Parse { line = 0; col = 0; msg })
  | "eval" -> Some (Eval msg)
  | "corrupt" -> Some (Corrupt msg)
  | "deadline" -> Some (Deadline msg)
  | "protocol" -> Some (Protocol msg)
  | "unsupported-distributed" -> Some (Unsupported_distributed msg)
  | "shard-failure" -> Some (Shard_failure msg)
  | _ -> None

let classify = function
  | Eval.Error msg -> Some (Eval msg)
  | Motif.Error msg -> Some (Eval (Printf.sprintf "pattern: %s" msg))
  | Template.Error msg -> Some (Eval (Printf.sprintf "template: %s" msg))
  | Gql_graph.Value.Type_error msg -> Some (Eval (Printf.sprintf "type: %s" msg))
  | Gql_graph.Pred.Unresolved names ->
    Some (Eval ("unresolved references: " ^ String.concat ", " names))
  | Gql_storage.Codec.Corrupt msg -> Some (Corrupt msg)
  | Sys_error msg -> Some (Usage msg)
  | _ -> None

let of_stop_reason reason what =
  match reason with
  | Budget.Exhausted | Budget.Hit_limit -> None
  | (Budget.Deadline | Budget.Step_budget | Budget.Cancelled) as r ->
    Some
      (Deadline
         (Printf.sprintf "%s stopped: %s" what (Budget.stop_reason_to_string r)))
