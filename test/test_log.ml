(* The transaction log: durable replay, group-commit atomicity under a
   crash at every byte offset, torn-tail salvage of transaction records,
   rollback/abort of the staged tail, tombstones, and a QCheck property
   that a logged-and-reopened store equals the in-memory mutation. *)

open Gql_graph
open Gql_storage

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let copy_file src dst =
  let s = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc s)

let lbl s = Tuple.make [ ("label", Value.Str s) ]

let base_graph () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_labeled_node b ~name:"a" "A" in
  let b1 = Graph.Builder.add_labeled_node b ~name:"b" "B" in
  let c = Graph.Builder.add_labeled_node b ~name:"c" "C" in
  ignore (Graph.Builder.add_edge b a b1);
  ignore (Graph.Builder.add_edge b b1 c);
  Graph.Builder.build b

let ops1 =
  [
    Mutate.Add_node { name = Some "d"; tuple = lbl "D" };
    Mutate.Add_edge { name = None; src = 2; dst = 3; tuple = Tuple.empty };
  ]

let ops2 = [ Mutate.Set_node { v = 0; tuple = lbl "Z" } ]

let make_base path =
  let st = Store.create path in
  ignore (Store.add_graph st (base_graph ()));
  Store.close st

let graph_print g = Format.asprintf "%a" Graph.pp g
let same a b = String.equal (graph_print a) (graph_print b)

let test_replay_on_reopen () =
  let path = tmp "gql_log_replay.db" in
  make_base path;
  let st = Store.open_existing path in
  let g1, _ = Store.append_txn st ~gid:0 ops1 in
  let g2, _ = Store.append_txn st ~gid:0 ops2 in
  Alcotest.(check int) "two txns staged" 2 (Store.txn_count st);
  Alcotest.(check int) "none durable yet" 0 (Store.durable_txn_count st);
  Alcotest.(check bool) "overlay applied in memory" true (same g2 (Store.get_graph st 0));
  ignore g1;
  Store.close st;
  (* a clean reopen replays the committed log tail *)
  let st = Store.open_existing path in
  Alcotest.(check bool) "no recovery needed" true (Store.recovery st = None);
  Alcotest.(check int) "txns replayed" 2 (Store.txn_count st);
  Alcotest.(check int) "txns durable" 2 (Store.durable_txn_count st);
  let expect, _ = Mutate.apply_all (base_graph ()) (ops1 @ ops2) in
  Alcotest.(check bool) "replayed graph = in-memory mutation" true
    (same expect (Store.get_graph st 0));
  Alcotest.(check int) "pending ops tracked" 3 (List.length (Store.pending_ops st 0));
  Store.close st;
  Sys.remove path

(* The ISSUE's crash matrix: one group-committed batch of two
   transaction records, a crash injected after every possible byte of
   its write stream. Whatever the crash tears, a reopen must show
   either the whole batch or none of it — never a partial graph. *)
let test_crash_at_every_byte () =
  let base = tmp "gql_log_crash_base.db" in
  let work = tmp "gql_log_crash_work.db" in
  make_base base;
  let pre = base_graph () in
  let post, _ = Mutate.apply_all pre (ops1 @ ops2) in
  (* measure the clean batch's write volume *)
  copy_file base work;
  let st = Store.open_existing work in
  ignore (Store.append_txn st ~gid:0 ops1);
  ignore (Store.append_txn st ~gid:0 ops2);
  Store.flush st;
  let total_bytes = Pager.bytes_written (Store.pager st) in
  Store.close st;
  Alcotest.(check bool) "batch writes something" true (total_bytes > 0);
  let crashes = ref 0 and applied = ref 0 in
  for fault = 0 to total_bytes do
    copy_file base work;
    let st = Store.open_existing work in
    Pager.set_fault (Store.pager st) ~after_bytes:fault;
    let crashed =
      match
        ignore (Store.append_txn st ~gid:0 ops1);
        ignore (Store.append_txn st ~gid:0 ops2);
        Store.flush st
      with
      | () -> false
      | exception Pager.Crash -> true
    in
    if crashed then incr crashes;
    Store.abort st;
    let st = Store.open_existing work in
    let g = Store.get_graph st 0 in
    let n = Store.txn_count st in
    (match n with
    | 0 ->
      Alcotest.(check bool)
        (Printf.sprintf "no txn -> base state (fault at %d)" fault)
        true (same pre g)
    | 2 ->
      incr applied;
      Alcotest.(check bool)
        (Printf.sprintf "both txns -> post state (fault at %d)" fault)
        true (same post g)
    | k ->
      Alcotest.failf "partial batch visible: %d of 2 txns (fault at %d)" k fault);
    if not crashed then
      Alcotest.(check int)
        (Printf.sprintf "uncrashed batch committed (fault at %d)" fault)
        2 n;
    Store.close st
  done;
  Alcotest.(check bool) "the matrix exercised real crashes" true (!crashes > 0);
  Alcotest.(check bool) "some runs committed" true (!applied > 0);
  Sys.remove base;
  Sys.remove work

let test_torn_txn_tail_salvage () =
  (* commit a graph and two txn records, then corrupt a byte inside the
     second txn record: the first must replay, the tear must be
     reported, and the repair must be committed *)
  let path = tmp "gql_log_torn.db" in
  make_base path;
  let st = Store.open_existing path in
  ignore (Store.append_txn st ~gid:0 ops1);
  ignore (Store.append_txn st ~gid:0 ops2);
  Store.close st;
  let size = (Unix.stat path).Unix.st_size in
  (* record layout: page 0, then contiguous [len][crc][payload]
     records; reconstruct the offsets to land the corruption in the
     last txn record (ops2: one Set_node) *)
  let txn_payload ops =
    let buf = Buffer.create 64 in
    Buffer.add_char buf '\251';
    Buffer.add_char buf 'u';
    Codec.write_uvarint buf 0;
    Codec.write_ops buf ops;
    Buffer.length buf
  in
  let last_len = 8 + txn_payload ops2 in
  let data_end =
    4096
    + (8 + String.length (Codec.graph_to_string (base_graph ())))
    + (8 + txn_payload ops1)
    + last_len
  in
  Alcotest.(check bool) "file covers the data" true (size >= data_end);
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let pos = data_end - 1 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let st = Store.open_existing path in
  (match Store.recovery st with
  | Some r ->
    Alcotest.(check int) "first txn salvaged" 1 r.Store.salvaged_txns;
    Alcotest.(check int) "graph record intact" 1 r.Store.salvaged;
    Alcotest.(check int) "no graph record dropped" 0 r.Store.dropped_records;
    Alcotest.(check int) "torn txn bytes dropped" last_len r.Store.dropped_bytes
  | None -> Alcotest.fail "expected a recovery report");
  let expect, _ = Mutate.apply_all (base_graph ()) ops1 in
  Alcotest.(check bool) "committed prefix replayed" true
    (same expect (Store.get_graph st 0));
  Store.close st;
  let st = Store.open_existing path in
  Alcotest.(check bool) "repair was committed" true (Store.recovery st = None);
  Alcotest.(check int) "stable txn count" 1 (Store.txn_count st);
  Store.close st;
  Sys.remove path

let test_rollback_discards_staged_txns () =
  let path = tmp "gql_log_rollback.db" in
  make_base path;
  let st = Store.open_existing path in
  ignore (Store.append_txn st ~gid:0 ops1);
  Store.flush st;
  ignore (Store.append_txn st ~gid:0 ops2);
  Alcotest.(check int) "staged tail present" 2 (Store.txn_count st);
  Store.rollback st;
  (* only the uncommitted tail is gone; the handle stays usable *)
  Alcotest.(check int) "staged txn discarded" 1 (Store.txn_count st);
  Alcotest.(check int) "durable txn kept" 1 (Store.durable_txn_count st);
  let expect, _ = Mutate.apply_all (base_graph ()) ops1 in
  Alcotest.(check bool) "graph back to the committed state" true
    (same expect (Store.get_graph st 0));
  (* and the store still accepts new work after a rollback *)
  ignore (Store.append_txn st ~gid:0 ops2);
  Store.close st;
  let st = Store.open_existing path in
  Alcotest.(check int) "post-rollback txn committed" 2 (Store.txn_count st);
  Store.close st;
  Sys.remove path

let test_abort_discards_staged_txns () =
  let path = tmp "gql_log_abort.db" in
  make_base path;
  let st = Store.open_existing path in
  ignore (Store.append_txn st ~gid:0 ops1);
  ignore (Store.add_graph st (base_graph ()));
  Store.abort st;
  Alcotest.(check bool) "aborted handle unusable" true
    (match Store.get_graph st 0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let st = Store.open_existing path in
  Alcotest.(check int) "aborted txn not visible" 0 (Store.txn_count st);
  Alcotest.(check int) "aborted graph not visible" 1 (Store.n_graphs st);
  Alcotest.(check bool) "base state intact" true
    (same (base_graph ()) (Store.get_graph st 0));
  Store.close st;
  Sys.remove path

let test_tombstone () =
  let path = tmp "gql_log_tomb.db" in
  let st = Store.create path in
  ignore (Store.add_graph st (base_graph ()));
  ignore (Store.add_graph st (Graph.of_labeled ~labels:[| "X" |] []));
  Store.close st;
  let st = Store.open_existing path in
  Store.remove_graph st 0;
  Alcotest.(check bool) "dead immediately" false (Store.is_live st 0);
  Alcotest.(check int) "live count drops" 1 (Store.live_count st);
  Store.close st;
  let st = Store.open_existing path in
  Alcotest.(check int) "gids stay allocated" 2 (Store.n_graphs st);
  Alcotest.(check bool) "tombstone replayed" false (Store.is_live st 0);
  Alcotest.(check bool) "dead gid rejected" true
    (match Store.get_graph st 0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "txn against a dead gid rejected" true
    (match Store.append_txn st ~gid:0 ops1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check int) "survivor intact" 1
    (Graph.n_nodes (Store.get_graph st 1));
  Alcotest.(check (list bool)) "iter skips the dead" [ true ]
    (let acc = ref [] in
     Store.iter st ~f:(fun gid _ -> acc := (gid = 1) :: !acc);
     !acc);
  Store.close st;
  Sys.remove path

let test_invalid_op_logs_nothing () =
  let path = tmp "gql_log_invalid.db" in
  make_base path;
  let st = Store.open_existing path in
  Alcotest.(check bool) "invalid op rejected" true
    (match
       Store.append_txn st ~gid:0
         [ Mutate.Add_edge { name = None; src = 0; dst = 99; tuple = Tuple.empty } ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check int) "nothing logged" 0 (Store.txn_count st);
  Store.close st;
  let st = Store.open_existing path in
  Alcotest.(check int) "nothing durable" 0 (Store.txn_count st);
  Alcotest.(check bool) "graph unscathed" true
    (same (base_graph ()) (Store.get_graph st 0));
  Store.close st;
  Sys.remove path

(* Staging keeps each graph's op batches newest first, so 500
   single-op txns stage in O(1) each; a reopen must still replay them in
   log order onto the live graph. *)
let test_many_txns_reopen () =
  let path = tmp "gql_log_many.db" in
  make_base path;
  let st = Store.open_existing path in
  let ops =
    List.init 500 (fun i ->
        match i mod 3 with
        | 0 ->
          Mutate.Add_node
            { name = Some (Printf.sprintf "n%d" i); tuple = lbl "N" }
        | 1 ->
          (* node 3 + i / 3 is the one the previous op added *)
          let dst = 3 + (i / 3) in
          Mutate.Add_edge { name = None; src = i mod 3; dst; tuple = Tuple.empty }
        | _ -> Mutate.Set_node { v = i mod 3; tuple = lbl (string_of_int i) })
  in
  List.iter (fun op -> ignore (Store.append_txn st ~gid:0 [ op ])) ops;
  let live = Store.get_graph st 0 in
  Alcotest.(check bool) "pending ops in log order" true
    (Store.pending_ops st 0 = ops);
  Store.close st;
  let st = Store.open_existing path in
  Alcotest.(check int) "every txn replayed" 500 (Store.txn_count st);
  Alcotest.(check bool) "reopened graph = live graph" true
    (same live (Store.get_graph st 0));
  Alcotest.(check bool) "replayed pending ops in log order" true
    (Store.pending_ops st 0 = ops);
  Store.close st;
  Sys.remove path

(* [adopt_txn] takes the caller's post-state instead of applying the
   ops, but keeps [append_txn]'s checks: each rejected batch raises and
   logs nothing, in memory or on disk. *)
let test_adopt_checks () =
  let path = tmp "gql_log_adopt.db" in
  make_base path;
  let st = Store.open_existing path in
  ignore (Store.add_graph st (base_graph ()));
  Store.remove_graph st 1;
  let txns = Store.txn_count st in
  let pre = Store.get_graph st 0 in
  let post ops = fst (Mutate.apply_all pre ops) in
  let rejected what ~gid ~post ops =
    Alcotest.(check bool) what true
      (match Store.adopt_txn st ~gid ~post ops with
      | exception Invalid_argument _ -> true
      | () -> false);
    Alcotest.(check int) (what ^ ": nothing logged") txns (Store.txn_count st);
    Alcotest.(check bool) (what ^ ": no pending ops") true
      (Store.pending_ops st 0 = []);
    Alcotest.(check bool) (what ^ ": graph unchanged") true
      (same pre (Store.get_graph st 0))
  in
  let edge src dst =
    Mutate.Add_edge { name = None; src; dst; tuple = Tuple.empty }
  in
  let node = Mutate.Add_node { name = None; tuple = lbl "D" } in
  rejected "gid out of range" ~gid:7 ~post:(post ops1) ops1;
  rejected "tombstoned gid" ~gid:1 ~post:(post ops1) ops1;
  rejected "node id out of range" ~gid:0 ~post:pre [ edge 0 3 ];
  rejected "edge id out of range" ~gid:0 ~post:pre
    [ Mutate.Set_edge { e = 2; tuple = lbl "X" } ];
  rejected "ids counted forward: the node comes later" ~gid:0
    ~post:(post [ node ]) [ edge 0 3; node ];
  rejected "post-state of another batch" ~gid:0 ~post:(post [ node ]) ops1;
  (* the same ids in the right order are valid: node 3 exists once the
     batch has added it, and edge 2 once the batch has added it *)
  let ops = [ node; edge 0 3; Mutate.Set_edge { e = 2; tuple = lbl "X" } ] in
  let g' = post ops in
  Store.adopt_txn st ~gid:0 ~post:g' ops;
  Alcotest.(check bool) "the post-state is adopted as is" true
    (Store.get_graph st 0 == g');
  Store.close st;
  let st = Store.open_existing path in
  Alcotest.(check bool) "the logged batch replays to it" true
    (same g' (Store.get_graph st 0));
  Store.close st;
  Sys.remove path

(* ---- the replay property -------------------------------------------- *)

(* Random mutation batches, some committed mid-stream: after a reopen,
   the store's graph must equal the in-memory application of every
   batch, in order. *)
let prop_replay_equals_memory =
  QCheck.Test.make ~name:"log replay = in-memory mutation" ~count:30
    (QCheck.make
       QCheck.Gen.(
         pair
           (Test_matcher.gen_labeled_graph ~max_n:8)
           (list_size (int_range 1 4) (list_size (int_range 1 5) nat)))
       ~print:(fun (g, batches) ->
         Format.asprintf "%a@.batches: %s" Graph.pp g
           (String.concat ";"
              (List.map
                 (fun b -> String.concat "," (List.map string_of_int b))
                 batches))))
    (fun (g, batches) ->
      let path = tmp "gql_log_prop.db" in
      let st = Store.create path in
      ignore (Store.add_graph st g);
      Store.flush st;
      let expect = ref g in
      List.iteri
        (fun i seeds ->
          let ops = Test_mutate.derive_ops !expect seeds in
          if ops <> [] then begin
            let g', _ = Mutate.apply_all !expect ops in
            expect := g';
            ignore (Store.append_txn st ~gid:0 ops)
          end;
          if i mod 2 = 0 then Store.flush st)
        batches;
      Store.close st;
      let st = Store.open_existing path in
      let ok =
        Store.recovery st = None && same !expect (Store.get_graph st 0)
      in
      Store.close st;
      Sys.remove path;
      ok)

let suite =
  [
    Alcotest.test_case "committed txns replay on reopen" `Quick
      test_replay_on_reopen;
    Alcotest.test_case "crash at every byte offset of a txn batch" `Slow
      test_crash_at_every_byte;
    Alcotest.test_case "torn txn tail salvages the committed prefix" `Quick
      test_torn_txn_tail_salvage;
    Alcotest.test_case "rollback discards the staged log tail" `Quick
      test_rollback_discards_staged_txns;
    Alcotest.test_case "abort discards the staged log tail" `Quick
      test_abort_discards_staged_txns;
    Alcotest.test_case "deletion tombstones replay" `Quick test_tombstone;
    Alcotest.test_case "an invalid op logs nothing" `Quick
      test_invalid_op_logs_nothing;
    Alcotest.test_case "500 single-op txns reopen to the live graph" `Quick
      test_many_txns_reopen;
    Alcotest.test_case "adopted post-states keep append_txn's checks" `Quick
      test_adopt_checks;
    QCheck_alcotest.to_alcotest prop_replay_equals_memory;
  ]
