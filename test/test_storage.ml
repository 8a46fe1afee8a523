open Gql_graph
open Gql_storage

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* --- codec --- *)

let test_value_roundtrip () =
  let values =
    [
      Value.Null; Value.Bool true; Value.Bool false; Value.Int 0;
      Value.Int (-1); Value.Int max_int; Value.Int min_int;
      Value.Float 3.25; Value.Float nan; Value.Float infinity;
      Value.Str ""; Value.Str "héllo\nworld"; Value.Str (String.make 5000 'x');
    ]
  in
  List.iter
    (fun v ->
      let buf = Buffer.create 16 in
      Codec.write_value buf v;
      let v', off = Codec.read_value (Buffer.contents buf) 0 in
      Alcotest.(check int) "consumed all" (Buffer.length buf) off;
      match v, v' with
      | Value.Float a, Value.Float b when Float.is_nan a ->
        Alcotest.(check bool) "nan round-trips" true (Float.is_nan b)
      | _ -> Alcotest.(check bool) "value round-trips" true (Value.equal v v'))
    values

let test_tuple_roundtrip () =
  let t =
    Tuple.make ~tag:"protein"
      [ ("name", Value.Str "A"); ("score", Value.Float 0.5); ("n", Value.Int 42) ]
  in
  let buf = Buffer.create 16 in
  Codec.write_tuple buf t;
  let t', _ = Codec.read_tuple (Buffer.contents buf) 0 in
  Alcotest.(check bool) "tuple round-trips" true (Tuple.equal t t')

let test_graph_roundtrip () =
  let g = Test_graph.sample_g () in
  let g' = Codec.graph_of_string (Codec.graph_to_string g) in
  Alcotest.(check bool) "structure preserved" true (Graph.equal_structure g g');
  Alcotest.(check (option int)) "names preserved" (Graph.node_by_name g "B2")
    (Graph.node_by_name g' "B2")

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec round-trips random graphs" ~count:150
    (QCheck.make (Test_matcher.gen_labeled_graph ~max_n:12))
    (fun g ->
      Graph.equal_structure g (Codec.graph_of_string (Codec.graph_to_string g)))

let test_codec_corruption () =
  let s = Codec.graph_to_string (Test_graph.sample_g ()) in
  Alcotest.(check bool) "truncated payload detected" true
    (match Codec.graph_of_string (String.sub s 0 (String.length s / 2)) with
    | exception Codec.Corrupt _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad version detected" true
    (match Codec.graph_of_string ("\255" ^ String.sub s 1 (String.length s - 1)) with
    | exception Codec.Corrupt _ -> true
    | _ -> false)

(* --- pager --- *)

let test_pager () =
  let path = tmp "gql_pager_test.db" in
  let p = Pager.create path in
  Alcotest.(check int) "empty" 0 (Pager.n_pages p);
  let a = Pager.alloc p and b = Pager.alloc p in
  Alcotest.(check (pair int int)) "sequential ids" (0, 1) (a, b);
  let data = Bytes.make Pager.page_size 'z' in
  Pager.write p b data;
  Alcotest.(check bytes) "read back" data (Pager.read p b);
  Alcotest.(check bool) "zeroed page" true
    (Bytes.for_all (fun c -> c = '\000') (Pager.read p a));
  Pager.close p;
  let p = Pager.open_existing path in
  Alcotest.(check int) "pages persist" 2 (Pager.n_pages p);
  Alcotest.(check bytes) "data persists" data (Pager.read p b);
  Alcotest.check_raises "out of range" (Invalid_argument "Pager.read: page out of range")
    (fun () -> ignore (Pager.read p 7));
  Pager.close p;
  Sys.remove path

(* --- buffer pool --- *)

let test_buffer_pool_lru () =
  let path = tmp "gql_pool_test.db" in
  let pager = Pager.create path in
  let pool = Buffer_pool.create ~capacity:2 pager in
  let p0 = Buffer_pool.alloc pool in
  let p1 = Buffer_pool.alloc pool in
  let p2 = Buffer_pool.alloc pool in
  (* capacity 2: allocating three pages must evict one *)
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "eviction happened" true (s.Buffer_pool.evictions >= 1);
  (* write through a cached frame, evict it, read it back *)
  Buffer_pool.with_page pool p0 (fun frame -> Bytes.set frame 0 'A');
  ignore (Buffer_pool.get pool p1);
  ignore (Buffer_pool.get pool p2);  (* p0 now LRU and evicted *)
  let frame' = Buffer_pool.get pool p0 in
  Alcotest.(check char) "dirty page written back on eviction" 'A' (Bytes.get frame' 0);
  ignore (Buffer_pool.get pool p0) (* resident now: a hit *);
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "hits and misses counted" true
    (s.Buffer_pool.hits > 0 && s.Buffer_pool.misses > 0);
  Buffer_pool.flush pool;
  Pager.close pager;
  Sys.remove path

(* --- store --- *)

let test_store_basic () =
  let path = tmp "gql_store_test.db" in
  let st = Store.create path in
  let g1 = Test_graph.sample_g () in
  let g2 = Graph.of_labeled ~labels:[| "X" |] [] in
  Alcotest.(check int) "first id" 0 (Store.add_graph st g1);
  Alcotest.(check int) "second id" 1 (Store.add_graph st g2);
  Alcotest.(check int) "count" 2 (Store.n_graphs st);
  Alcotest.(check bool) "get 0" true (Graph.equal_structure g1 (Store.get_graph st 0));
  Alcotest.(check bool) "get 1" true (Graph.equal_structure g2 (Store.get_graph st 1));
  Store.close st;
  Sys.remove path

let test_store_reopen () =
  let path = tmp "gql_store_reopen.db" in
  let st = Store.create path in
  let graphs =
    List.init 20 (fun i ->
        Graph.of_labeled
          ~labels:(Array.init (1 + (i mod 5)) (fun j -> Printf.sprintf "L%d" j))
          (if i mod 5 >= 2 then [ (0, 1) ] else []))
  in
  List.iter (fun g -> ignore (Store.add_graph st g)) graphs;
  Store.close st;
  let st = Store.open_existing path in
  Alcotest.(check int) "count after reopen" 20 (Store.n_graphs st);
  List.iteri
    (fun i g ->
      Alcotest.(check bool)
        (Printf.sprintf "graph %d survives reopen" i)
        true
        (Graph.equal_structure g (Store.get_graph st i)))
    graphs;
  Store.close st;
  Sys.remove path

let test_store_large_records () =
  (* records bigger than one page must span pages correctly *)
  let path = tmp "gql_store_large.db" in
  let st = Store.create ~pool_capacity:4 path in
  let big =
    Graph.of_labeled
      ~labels:(Array.init 2000 (fun i -> Printf.sprintf "Label%06d" i))
      (List.init 1999 (fun i -> (i, i + 1)))
  in
  ignore (Store.add_graph st big);
  Alcotest.(check bool) "multi-page record round-trips" true
    (Graph.equal_structure big (Store.get_graph st 0));
  Store.close st;
  let st = Store.open_existing ~pool_capacity:4 path in
  Alcotest.(check bool) "after reopen too" true
    (Graph.equal_structure big (Store.get_graph st 0));
  Store.close st;
  Sys.remove path

let test_store_query_integration () =
  (* the "large collection of small graphs" category: store compounds on
     disk, run the selection operator over the stored collection *)
  let path = tmp "gql_store_query.db" in
  let st = Store.create path in
  let compounds = Gql_datasets.Chem.generate ~n_compounds:50 () in
  List.iter (fun g -> ignore (Store.add_graph st g)) compounds;
  let pattern = Gql_matcher.Flat_pattern.path [ "C"; "N" ] in
  let in_memory =
    List.filter
      (fun g -> Gql_matcher.Engine.count_matches ~limit:1 pattern g > 0)
      compounds
    |> List.length
  in
  let from_disk = ref 0 in
  Store.iter st ~f:(fun _ g ->
      if Gql_matcher.Engine.count_matches ~limit:1 pattern g > 0 then incr from_disk);
  Alcotest.(check int) "disk-backed selection = in-memory" in_memory !from_disk;
  Store.close st;
  Sys.remove path

let test_store_bad_magic () =
  let path = tmp "gql_store_bad.db" in
  let oc = open_out path in
  output_string oc (String.make (2 * 4096) 'j');
  close_out oc;
  Alcotest.(check bool) "bad magic rejected with Corrupt" true
    (match Store.open_existing path with
    | exception Codec.Corrupt _ -> true
    | _ -> false);
  Sys.remove path

(* [fixtures/gqlstor2_aux.store] was written by the last release that
   still persisted learned planner statistics: a graph, a kind-0xFA aux
   record, a second graph, then a transaction record adding node 3 to
   graph 0. Opening must skip the aux record — counting it as a graph
   would end the directory scan early and truncate the committed tail. *)
let test_store_skips_retired_aux () =
  let path = tmp "gql_store_aux_fixture.db" in
  let fixture =
    In_channel.with_open_bin "fixtures/gqlstor2_aux.store"
      In_channel.input_all
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc fixture);
  let check_open st =
    Alcotest.(check bool) "clean open, nothing truncated" true
      (Store.recovery st = None);
    Alcotest.(check int) "both graphs" 2 (Store.n_graphs st);
    Alcotest.(check int) "the txn replays" 1 (Store.txn_count st);
    Alcotest.(check int) "graph 0 carries the inserted node" 4
      (Graph.n_nodes (Store.get_graph st 0));
    Alcotest.(check int) "graph 1 intact" 2 (Graph.n_nodes (Store.get_graph st 1));
    Alcotest.(check int) "verify reads all four records" 4 (Store.verify st)
  in
  let st = Store.open_existing path in
  check_open st;
  Store.close st;
  check_open (Store.open_existing path);
  Sys.remove path

let test_crc32_vectors () =
  (* the IEEE 802.3 check value, plus incremental equivalence *)
  Alcotest.(check int) "check vector" 0xCBF43926 (Codec.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Codec.crc32 "");
  Alcotest.(check int) "incremental = one-shot" (Codec.crc32 "123456789")
    (Codec.crc32 ~crc:(Codec.crc32 "1234") "56789")

let suite =
  [
    Alcotest.test_case "codec: values" `Quick test_value_roundtrip;
    Alcotest.test_case "codec: tuples" `Quick test_tuple_roundtrip;
    Alcotest.test_case "codec: graphs" `Quick test_graph_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "codec: corruption detected" `Quick test_codec_corruption;
    Alcotest.test_case "pager" `Quick test_pager;
    Alcotest.test_case "buffer pool LRU + write-back" `Quick test_buffer_pool_lru;
    Alcotest.test_case "store basics" `Quick test_store_basic;
    Alcotest.test_case "store reopen" `Quick test_store_reopen;
    Alcotest.test_case "multi-page records" `Quick test_store_large_records;
    Alcotest.test_case "selection over a stored collection" `Quick
      test_store_query_integration;
    Alcotest.test_case "bad magic rejected" `Quick test_store_bad_magic;
    Alcotest.test_case "retired aux records are skipped" `Quick
      test_store_skips_retired_aux;
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
  ]
