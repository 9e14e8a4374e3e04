(* The query service layer: protocol parsing, the LRU rewriting cache,
   session dirty-tracking, the serve loop's request execution, and the
   prepare-once/answer-many contract (exactly one rewrite for any number
   of PREPARE/ANSWER pairs of the same OMQ). *)

module Cache = Obda_service.Cache
module Prepared = Obda_service.Prepared
module Session = Obda_service.Session
module Protocol = Obda_service.Protocol
module Serve = Obda_service.Serve
module Omq = Obda_rewriting.Omq
module Ndl = Obda_ndl.Ndl
module Parse = Obda_parse.Parse
module Abox = Obda_data.Abox
module Symbol = Obda_syntax.Symbol
module Budget = Obda_runtime.Budget
module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault
module Obs = Obda_obs.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let tbox_text = "A(x) -> R(x,_)\nR(_,x) -> A(x)"
let tbox () = Parse.ontology_of_string tbox_text
let cq_a () = Parse.query_of_string "q(x) <- A(x)"
let abox () = Parse.data_of_string "A(a) R(a,b)"

(* A tiny NDL query to populate cache entries without running a rewriter. *)
let dummy_query name =
  Omq.rewrite Omq.Ucq (Omq.make (tbox ()) (Parse.query_of_string name))

(* ------------------------------------------------------------------ *)
(* Protocol *)

let ok_some line =
  match Protocol.parse line with
  | Ok (Some r) -> r
  | Ok None -> Alcotest.failf "expected a request from %S" line
  | Error m -> Alcotest.failf "parse of %S failed: %s" line m

let test_protocol_verbs () =
  (match ok_some "LOAD ONTOLOGY o.txt" with
  | Protocol.Load_ontology f -> check_str "ontology file" "o.txt" f
  | _ -> Alcotest.fail "expected Load_ontology");
  (match ok_some "load data d.txt" with
  | Protocol.Load_data f -> check_str "data file (case-insensitive)" "d.txt" f
  | _ -> Alcotest.fail "expected Load_data");
  (match ok_some "PREPARE q1 q(x) <- A(x)" with
  | Protocol.Prepare { name; algorithm; cq } ->
    check_str "name" "q1" name;
    check "no algorithm" true (algorithm = None);
    check_str "cq text" "q(x) <- A(x)" cq
  | _ -> Alcotest.fail "expected Prepare");
  (match ok_some "PREPARE q2 ALG ucq q(x) <- A(x)" with
  | Protocol.Prepare { algorithm = Some a; _ } ->
    check "explicit algorithm" true (a = Omq.Ucq)
  | _ -> Alcotest.fail "expected Prepare with algorithm");
  (match ok_some "ANSWER q1" with
  | Protocol.Answer n -> check_str "answer name" "q1" n
  | _ -> Alcotest.fail "expected Answer");
  (match ok_some "ASSERT A(a) R(a,b)" with
  | Protocol.Assert_facts t -> check_str "assert payload" "A(a) R(a,b)" t
  | _ -> Alcotest.fail "expected Assert_facts");
  (match ok_some "RETRACT A(a)" with
  | Protocol.Retract_facts t -> check_str "retract payload" "A(a)" t
  | _ -> Alcotest.fail "expected Retract_facts");
  check "stats" true (ok_some "STATS" = Protocol.Stats);
  check "ping" true (ok_some "PING" = Protocol.Ping);
  check "ping (case-insensitive)" true (ok_some "ping" = Protocol.Ping);
  check "checkpoint" true (ok_some "CHECKPOINT" = Protocol.Checkpoint);
  check "quit" true (ok_some "QUIT" = Protocol.Quit);
  check "exit alias" true (ok_some "exit" = Protocol.Quit)

let test_protocol_skips_and_errors () =
  check "blank" true (Protocol.parse "" = Ok None);
  check "spaces" true (Protocol.parse "   " = Ok None);
  check "comment" true (Protocol.parse "# hello" = Ok None);
  let is_error line =
    match Protocol.parse line with Error _ -> true | _ -> false
  in
  check "unknown verb" true (is_error "FROBNICATE x");
  check "LOAD without kind" true (is_error "LOAD");
  check "LOAD bad kind" true (is_error "LOAD TBOX o.txt");
  check "PREPARE without query" true (is_error "PREPARE q1");
  check "PREPARE bad algorithm" true (is_error "PREPARE q ALG nope q(x) <- A(x)");
  check "ANSWER without name" true (is_error "ANSWER");
  check "ANSWER extra args" true (is_error "ANSWER q1 q2");
  check "ASSERT empty" true (is_error "ASSERT");
  check "STATS with args" true (is_error "STATS now");
  check "PING with args" true (is_error "PING pong");
  check "CHECKPOINT with args" true (is_error "CHECKPOINT now")

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_hit_miss () =
  let c = Cache.create () in
  let builds = ref 0 in
  let build () = incr builds; dummy_query "q(x) <- A(x)" in
  let q1, o1 = Cache.find_or_add c ~key:"k1" build in
  check "first lookup misses" true (o1 = `Miss);
  let q2, o2 = Cache.find_or_add c ~key:"k1" build in
  check "second lookup hits" true (o2 = `Hit);
  check "hit returns the same rewriting" true (q1 == q2);
  check_int "one build" 1 !builds;
  check_int "hits" 1 (Cache.hits c);
  check_int "misses" 1 (Cache.misses c);
  check_int "entries" 1 (Cache.length c);
  check_int "weight is Ndl.size" (Ndl.size q1) (Cache.weight c)

let test_cache_lru_eviction () =
  let c = Cache.create ~max_entries:2 () in
  let add key = ignore (Cache.find_or_add c ~key (fun () -> dummy_query "q(x) <- A(x)")) in
  add "k1";
  add "k2";
  (* touch k1 so k2 becomes the LRU victim *)
  add "k1";
  add "k3";
  check_int "bounded to 2 entries" 2 (Cache.length c);
  check "k2 evicted" false (Cache.mem c "k2");
  check "k1 kept (recently used)" true (Cache.mem c "k1");
  check "k3 kept (new)" true (Cache.mem c "k3");
  check_int "one eviction" 1 (Cache.evictions c);
  Alcotest.(check (list string))
    "MRU order" [ "k3"; "k1" ] (Cache.keys_mru_first c)

let test_cache_weight_bound () =
  let w = Ndl.size (dummy_query "q(x) <- A(x)") in
  (* room for exactly one resident rewriting *)
  let c = Cache.create ~max_weight:w () in
  let add key = ignore (Cache.find_or_add c ~key (fun () -> dummy_query "q(x) <- A(x)")) in
  add "k1";
  add "k2";
  check_int "one resident entry" 1 (Cache.length c);
  check "k2 is the resident one" true (Cache.mem c "k2");
  check_int "weight within bound" w (Cache.weight c);
  check_int "evicted k1" 1 (Cache.evictions c)

let test_cache_counters_reach_obs () =
  let (), coll =
    Obs.collecting (fun () ->
        let c = Cache.create ~max_entries:1 () in
        let add key =
          ignore (Cache.find_or_add c ~key (fun () -> dummy_query "q(x) <- A(x)"))
        in
        add "k1";
        add "k1";
        add "k2")
  in
  check_int "obs hit" 1 (Obs.Collector.counter coll "service.cache.hit");
  check_int "obs miss" 2 (Obs.Collector.counter coll "service.cache.miss");
  check_int "obs evict" 1 (Obs.Collector.counter coll "service.cache.evict")

let test_cache_mru_fast_path () =
  let c = Cache.create () in
  let add key =
    ignore (Cache.find_or_add c ~key (fun () -> dummy_query "q(x) <- A(x)"))
  in
  add "k1";
  add "k2";
  add "k3";
  check_int "inserts are not relinks" 0 (Cache.relinks c);
  (* repeated hits on the MRU entry must take the fast path: no splice,
     and the recency order is left exactly as it was *)
  add "k3";
  add "k3";
  check_int "MRU hits do not relink" 0 (Cache.relinks c);
  Alcotest.(check (list string))
    "order unchanged by MRU hits" [ "k3"; "k2"; "k1" ] (Cache.keys_mru_first c);
  (* a hit on a non-MRU entry is the slow path: one splice, promoted *)
  add "k1";
  check_int "non-MRU hit relinks once" 1 (Cache.relinks c);
  Alcotest.(check (list string))
    "promoted to the front" [ "k1"; "k3"; "k2" ] (Cache.keys_mru_first c);
  (* and the freshly promoted entry is back on the fast path *)
  add "k1";
  check_int "promoted entry hits the fast path" 1 (Cache.relinks c)

let test_cache_failed_build_counts_nothing () =
  let (), coll =
    Obs.collecting (fun () ->
        let c = Cache.create () in
        check "build failure propagates" true
          (try
             ignore (Cache.find_or_add c ~key:"k" (fun () -> failwith "boom"));
             false
           with Failure _ -> true);
        check_int "no resident entry" 0 (Cache.length c);
        check_int "failed build is not a miss" 0 (Cache.misses c);
        check_int "nor a hit" 0 (Cache.hits c);
        (* the retry builds for real and is the first (and only) miss *)
        let _, o =
          Cache.find_or_add c ~key:"k" (fun () -> dummy_query "q(x) <- A(x)")
        in
        check "retry misses" true (o = `Miss);
        check_int "one miss after the retry" 1 (Cache.misses c))
  in
  check_int "telemetry agrees with the counter" 1
    (Obs.Collector.counter coll "service.cache.miss")

let test_cache_fault_site_counts_nothing () =
  (* an injected fault at service.cache fires before the table is probed:
     like a failed build, it must leave every counter untouched *)
  let c = Cache.create () in
  match Fault.parse_plan "service.cache@1" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Fault.arm plan;
    Fun.protect ~finally:Fault.disarm (fun () ->
        check "injected fault raises Obda_error" true
          (try
             ignore
               (Cache.find_or_add c ~key:"k" (fun () ->
                    dummy_query "q(x) <- A(x)"));
             false
           with Error.Obda_error _ -> true);
        check_int "no miss counted" 0 (Cache.misses c);
        check_int "no resident entry" 0 (Cache.length c);
        (* the plan selects activation 1 only: the retry goes through *)
        let _, o =
          Cache.find_or_add c ~key:"k" (fun () -> dummy_query "q(x) <- A(x)")
        in
        check "retry succeeds with the plan still armed" true (o = `Miss))

(* ------------------------------------------------------------------ *)
(* Session *)

let test_session_consistency_memo () =
  let s = Session.create () in
  Session.load_ontology s (Parse.ontology_of_string "A(x), B(x) -> false");
  Session.load_data s (Parse.data_of_string "A(a)");
  check "no verdict yet" true (Session.consistency_cached s = None);
  check "consistent" true (Session.consistent s);
  check "verdict memoised" true (Session.consistency_cached s = Some true);
  (* unchanged data: the memo answers *)
  check "still consistent" true (Session.consistent s);
  (* a mutation invalidates the memo through the revision counter *)
  check "assert new fact" true
    (Session.assert_fact s
       (Abox.Concept_assertion (Symbol.intern "B", Symbol.intern "a")));
  check "memo invalidated" true (Session.consistency_cached s = None);
  check "now inconsistent" false (Session.consistent s);
  check "retract restores" true
    (Session.retract_fact s
       (Abox.Concept_assertion (Symbol.intern "B", Symbol.intern "a")));
  check "consistent again" true (Session.consistent s);
  (* re-asserting an already-present fact is a no-op: memo survives *)
  check "duplicate assert is a no-op" false
    (Session.assert_fact s
       (Abox.Concept_assertion (Symbol.intern "A", Symbol.intern "a")));
  check "memo survives no-op" true (Session.consistency_cached s = Some true)

let test_session_answer_runs_check_once () =
  let s = Session.create () in
  Session.load_ontology s (tbox ());
  Session.load_data s (abox ());
  let p, _ = Session.prepare s ~name:"q" (cq_a ()) in
  let (), coll =
    Obs.collecting (fun () ->
        for _ = 1 to 50 do
          ignore (Session.answer s p)
        done)
  in
  let consistency_spans =
    List.length
      (List.filter
         (fun (sp : Obs.span) -> sp.Obs.name = "chase.consistency")
         (Obs.Collector.spans coll))
  in
  check_int "consistency checked once for 50 answers" 1 consistency_spans

let test_session_load_ontology_drops_prepared () =
  let s = Session.create () in
  Session.load_ontology s (tbox ());
  let _ = Session.prepare s ~name:"q" (cq_a ()) in
  check "prepared registered" true (Session.find_prepared s "q" <> None);
  Session.load_ontology s (tbox ());
  check "reload drops prepared" true (Session.find_prepared s "q" = None);
  Alcotest.(check (list string)) "no names" [] (Session.prepared_names s)

let test_session_answer_inconsistent_convention () =
  let s = Session.create () in
  Session.load_ontology s
    (Parse.ontology_of_string "A(x), B(x) -> false\nA(x) -> C(x)");
  Session.load_data s (Parse.data_of_string "A(a) B(a) C(b)");
  let p, _ = Session.prepare s ~name:"q" (Parse.query_of_string "q(x) <- C(x)") in
  let answers = Session.answer s p in
  (* inconsistent (T, A): every individual is an answer *)
  check_int "all tuples over ind(A)" 2 (List.length answers)

(* ------------------------------------------------------------------ *)
(* Serve *)

let with_temp_file content f =
  let path = Filename.temp_file "obda_service" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      f path)

let first = function
  | line :: _ -> line
  | [] -> Alcotest.fail "expected at least one response line"

let test_serve_every_verb () =
  with_temp_file tbox_text (fun onto_file ->
      with_temp_file "A(a) R(a,b)" (fun data_file ->
          let s = Session.create () in
          let exec line = fst (Serve.handle_line s line) in
          check "load ontology OK" true
            (String.length (first (exec ("LOAD ONTOLOGY " ^ onto_file))) > 2);
          check_str "load data" "OK data atoms=2 individuals=2"
            (first (exec ("LOAD DATA " ^ data_file)));
          let prep = first (exec "PREPARE q1 q(x) <- A(x)") in
          check "prepare miss" true
            (String.length prep > 0
            && String.sub prep 0 2 = "OK"
            && String.length prep > 30);
          (match exec "ANSWER q1" with
          | status :: tuples ->
            check_str "answer status" "OK answers=2" status;
            Alcotest.(check (list string))
              "tuples" [ "a"; "b" ] (List.sort compare tuples)
          | [] -> Alcotest.fail "no answer response");
          check_str "assert" "OK asserted added=1 atoms=3"
            (first (exec "ASSERT A(c)"));
          check_str "answer sees the new fact" "OK answers=3"
            (first (exec "ANSWER q1"));
          check_str "retract" "OK retracted removed=1 atoms=2"
            (first (exec "RETRACT A(c)"));
          (match exec "STATS" with
          | status :: kvs ->
            check_str "stats status" "OK stats=14" status;
            check "stats payload lines" true (List.length kvs = 14)
          | [] -> Alcotest.fail "no stats response");
          (* boolean query *)
          ignore (exec "PREPARE b q() <- A(x)");
          Alcotest.(check (list string))
            "boolean answer" [ "OK boolean=true" ] (exec "ANSWER b");
          let lines, stop = Serve.handle_line s "QUIT" in
          check "quit stops" true stop;
          Alcotest.(check (list string)) "quit response" [ "OK bye" ] lines))

let err_class line =
  (* "ERR class=parse msg=..." -> "parse" *)
  match String.split_on_char ' ' line with
  | "ERR" :: kv :: _ when String.length kv > 6 && String.sub kv 0 6 = "class=" ->
    String.sub kv 6 (String.length kv - 6)
  | _ -> Alcotest.failf "expected an ERR line, got %S" line

let test_serve_err_leaves_session_usable () =
  let s = Session.create ~budget:(Budget.create ~max_steps:1 ()) () in
  Session.load_ontology s (tbox ());
  Session.load_data s (abox ());
  (* the rewrite exhausts the 1-step request sub-budget -> in-protocol ERR *)
  let lines, stop = Serve.handle_line s "PREPARE q q(x) <- A(x)" in
  check_str "budget error class" "budget" (err_class (first lines));
  check "budget error does not stop the loop" false stop;
  (* the session survives: requests that fit the per-request allowance
     still succeed (each request gets a FRESH sub-budget) *)
  let lines, _ = Serve.handle_line s "STATS" in
  check_str "stats after failed request" "OK stats=14" (first lines);
  (* parse errors in payloads are in-protocol too *)
  let lines, _ = Serve.handle_line s "ASSERT A(" in
  check_str "payload parse error" "parse" (err_class (first lines));
  let lines, _ = Serve.handle_line s "ANSWER nosuch" in
  check_str "unknown prepared name" "internal" (err_class (first lines))

let test_serve_prepare_once_answer_many () =
  let s = Session.create () in
  Session.load_ontology s (tbox ());
  Session.load_data s (abox ());
  let (), coll =
    Obs.collecting (fun () ->
        for _ = 1 to 100 do
          let lines, _ = Serve.handle_line s "PREPARE q q(x) <- A(x)" in
          check "prepare OK" true (String.sub (first lines) 0 2 = "OK");
          let lines, _ = Serve.handle_line s "ANSWER q" in
          check_str "answer OK" "OK answers=2" (first lines)
        done)
  in
  (* the acceptance contract: one rewrite for the whole session *)
  check_int "exactly one cache miss" 1
    (Obs.Collector.counter coll "service.cache.miss");
  check_int "99 cache hits" 99
    (Obs.Collector.counter coll "service.cache.hit");
  check_int "no evictions" 0
    (Obs.Collector.counter coll "service.cache.evict");
  check_int "session cache agrees (miss)" 1 (Cache.misses (Session.cache s));
  check_int "session cache agrees (hit)" 99 (Cache.hits (Session.cache s));
  (* every request ran under its own service.request span *)
  let request_spans =
    List.filter
      (fun (sp : Obs.span) -> sp.Obs.name = "service.request")
      (Obs.Collector.spans coll)
  in
  check_int "one span per request" 200 (List.length request_spans)

let test_serve_digest_shares_cache_across_names () =
  let s = Session.create () in
  Session.load_ontology s (tbox ());
  (* same OMQ modulo atom order and name: one cache entry *)
  let _ = fst (Serve.handle_line s "PREPARE q1 q(x) <- A(x), R(x,y)") in
  let _ = fst (Serve.handle_line s "PREPARE q2 q(x) <- R(x,y), A(x)") in
  check_int "one cache entry for both names" 1 (Cache.length (Session.cache s));
  check_int "second prepare hit" 1 (Cache.hits (Session.cache s));
  Alcotest.(check (list string))
    "both names registered" [ "q1"; "q2" ] (Session.prepared_names s)

(* ------------------------------------------------------------------ *)
(* CRLF input and BATCH *)

let test_serve_crlf_input () =
  with_temp_file tbox_text (fun onto_file ->
      let script =
        String.concat "\r\n"
          [
            "LOAD ONTOLOGY " ^ onto_file;
            "PREPARE q q(x) <- A(x)";
            "ANSWER q";
            "QUIT";
            "";
          ]
      in
      with_temp_file script (fun script_file ->
          with_temp_file "" (fun out_file ->
              let s = Session.create () in
              Session.load_data s (abox ());
              let ic = open_in_bin script_file in
              let oc = open_out out_file in
              Fun.protect
                ~finally:(fun () ->
                  close_in_noerr ic;
                  close_out_noerr oc)
                (fun () -> Serve.run_channels s ic oc);
              let lines =
                In_channel.with_open_text out_file In_channel.input_lines
              in
              check "no ERR despite CRLF line endings" true
                (List.for_all
                   (fun l ->
                     not (String.length l >= 3 && String.sub l 0 3 = "ERR"))
                   lines);
              check "query answered" true
                (List.mem "OK answers=2" lines);
              check "loop reached QUIT" true
                (match List.rev lines with "OK bye" :: _ -> true | _ -> false))))

let test_protocol_batch () =
  (match ok_some "BATCH q1 q2 q1" with
  | Protocol.Batch names ->
    Alcotest.(check (list string)) "names in order" [ "q1"; "q2"; "q1" ] names
  | _ -> Alcotest.fail "expected Batch");
  (match ok_some "batch  q1" with
  | Protocol.Batch names ->
    Alcotest.(check (list string))
      "single name, case-insensitive verb" [ "q1" ] names
  | _ -> Alcotest.fail "expected Batch");
  check "BATCH without names is an error" true
    (match Protocol.parse "BATCH" with Error _ -> true | _ -> false)

(* One session per worker count: prepare two queries (one boolean), read
   their individual ANSWER responses, and require the BATCH response to be
   exactly "OK batch=N" followed by those responses retagged with
   "name=..." — in request order, byte for byte, sequential or pooled. *)
let test_serve_batch_matches_individual () =
  let run jobs =
    let s = Session.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Session.close s)
      (fun () ->
        Session.load_ontology s (tbox ());
        Session.load_data s (abox ());
        ignore (Serve.handle_line s "PREPARE q1 q(x) <- A(x)");
        ignore (Serve.handle_line s "PREPARE qb q() <- R(x,y)");
        let individual name = fst (Serve.handle_line s ("ANSWER " ^ name)) in
        let q1 = individual "q1" and qb = individual "qb" in
        (fst (Serve.handle_line s "BATCH q1 qb q1"), q1, qb))
  in
  let retag name = function
    | status :: tuples
      when String.length status > 3 && String.sub status 0 3 = "OK " ->
      Printf.sprintf "OK name=%s %s" name
        (String.sub status 3 (String.length status - 3))
      :: tuples
    | other -> other
  in
  List.iter
    (fun jobs ->
      let batch, q1, qb = run jobs in
      Alcotest.(check (list string))
        (Printf.sprintf "batch at jobs=%d matches individual answers" jobs)
        (("OK batch=3" :: retag "q1" q1) @ retag "qb" qb @ retag "q1" q1)
        batch)
    [ 1; 2 ]

let test_serve_batch_errors () =
  let s = Session.create () in
  Session.load_ontology s (tbox ());
  Session.load_data s (abox ());
  ignore (Serve.handle_line s "PREPARE q1 q(x) <- A(x)");
  let lines, stop = Serve.handle_line s "BATCH q1 nosuch" in
  check "unknown name is in-protocol" false stop;
  check_str "names resolve before anything evaluates" "internal"
    (err_class (first lines));
  (* the session survives the failed batch *)
  check_str "session still answers" "OK batch=1"
    (first (fst (Serve.handle_line s "BATCH q1")))

(* BATCH answers each query exactly as ANSWER does: one observed
   [eval.ndl] span per query, through the prepared query's plan cache (so
   the second q1 reuses the plan the first compiled), with or without a
   fault plan armed, sequential or pooled. *)
let test_serve_batch_answers_like_answer () =
  let run ~jobs ~armed =
    let s = Session.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Session.close s)
      (fun () ->
        Session.load_ontology s (tbox ());
        Session.load_data s (abox ());
        ignore (Serve.handle_line s "PREPARE q1 q(x) <- A(x)");
        check "consistency settled before collecting" true
          (Session.consistent s);
        let batch () =
          Obs.collecting (fun () -> ignore (Serve.handle_line s "BATCH q1 q1"))
        in
        let (), coll =
          if not armed then batch ()
          else
            match Fault.parse_plan "service.request@999" with
            | Error e -> Alcotest.fail e
            | Ok plan ->
              Fault.arm plan;
              Fun.protect ~finally:Fault.disarm batch
        in
        let what = Printf.sprintf "jobs=%d armed=%b" jobs armed in
        check_int
          (what ^ ": one eval.ndl span per query")
          2
          (List.length
             (List.filter
                (fun (sp : Obs.span) -> sp.Obs.name = "eval.ndl")
                (Obs.Collector.spans coll)));
        check_int
          (what ^ ": the second q1 hits the plan cache")
          1
          (Obs.Collector.counter coll "eval.plan.cache_hits"))
  in
  List.iter
    (fun (jobs, armed) -> run ~jobs ~armed)
    [ (1, false); (1, true); (2, false); (2, true) ]

(* ------------------------------------------------------------------ *)
(* Snapshots and the stats hook *)

let test_session_freeze_isolation () =
  let s = Session.create () in
  Session.load_ontology s (tbox ());
  Session.load_data s (abox ());
  let p, _ = Session.prepare s ~name:"q" (cq_a ()) in
  let snap = Session.freeze s in
  check_int "frozen answers" 2 (List.length (Session.answer_at s p snap));
  check_int "writer adds one fact" 1
    (fst
       (Session.assert_facts s
          [ Abox.Concept_assertion (Symbol.intern "A", Symbol.intern "c") ]));
  (* the snapshot is immune to the concurrent write... *)
  check_int "snapshot still answers 2" 2
    (List.length (Session.answer_at s p snap));
  (* ...while a fresh freeze sees it *)
  check_int "live store answers 3" 3 (List.length (Session.answer s p));
  match Session.frozen_span s with
  | Some (lo, hi) ->
    check "span covers both served revisions" true (hi > lo)
  | None -> Alcotest.fail "no frozen span after two freezes"

let test_session_stats_hook () =
  let s = Session.create () in
  check_int "plain session: exactly 14 rows" 14 (List.length (Session.stats s));
  Session.set_stats_hook s (fun () -> [ ("x.one", "1"); ("x.two", "2") ]);
  let rows = Session.stats s in
  check_int "hook rows appended" 16 (List.length rows);
  check_str "base rows first" "requests" (fst (List.hd rows));
  check_str "hook rows last" "x.two" (fst (List.hd (List.rev rows)))

let test_budget_sub_timeout () =
  let b = Budget.create ~timeout:10. () in
  (match Budget.wall_remaining (Budget.sub ~timeout:0.05 b) with
  | Some r -> check "tighter request deadline wins" true (r <= 0.05 +. 1e-3)
  | None -> Alcotest.fail "sub-budget lost the deadline");
  (match Budget.wall_remaining (Budget.sub ~timeout:30. b) with
  | Some r -> check "parent deadline kept when tighter" true (r <= 10.)
  | None -> Alcotest.fail "sub-budget lost the deadline");
  match Budget.wall_remaining (Budget.sub ~timeout:0.05 Budget.none) with
  | Some r -> check "timeout applies to an unlimited parent" true (r <= 0.05 +. 1e-3)
  | None -> Alcotest.fail "timeout dropped on unlimited parent"

(* Property: every answer set observed by a reader racing the writers
   equals the sequential evaluation at SOME revision the writer actually
   produced — the snapshot-isolation acceptance criterion. *)
let test_race_readers_vs_writers () =
  let module Pool = Obda_runtime.Pool in
  let n_ops = 40 in
  let readers = 3 in
  let reads_per_reader = 60 in
  let mk () =
    let s = Session.create () in
    Session.load_ontology s (tbox ());
    Session.load_data s (abox ());
    s
  in
  let fact i =
    Abox.Concept_assertion (Symbol.intern "A", Symbol.intern (Printf.sprintf "w%d" i))
  in
  (* op k asserts a fresh fact (even k) or retracts the previous one (odd
     k): every op is effective, so the revision sequence is dense and
     identical across replays *)
  let apply s k =
    if k mod 2 = 0 then ignore (Session.assert_facts s [ fact k ])
    else ignore (Session.retract_facts s [ fact (k - 1) ])
  in
  (* sequential replay: expected sorted answer set per revision *)
  let expected = Hashtbl.create 64 in
  let ref_s = mk () in
  let ref_p, _ = Session.prepare ref_s ~name:"q" (cq_a ()) in
  let record () =
    let snap = Session.freeze ref_s in
    Hashtbl.replace expected
      (Session.snapshot_revision snap)
      (List.sort compare (Session.answer_at ref_s ref_p snap))
  in
  record ();
  for k = 0 to n_ops - 1 do
    apply ref_s k;
    record ()
  done;
  (* the race: one writer domain against [readers] reader domains *)
  let s = mk () in
  let p, _ = Session.prepare s ~name:"q" (cq_a ()) in
  let observations = Array.make readers [] in
  Pool.with_pool ~jobs:(readers + 1) (fun pool ->
      Pool.run pool (fun w ->
          if w = 0 then
            for k = 0 to n_ops - 1 do
              apply s k
            done
          else begin
            let mine = ref [] in
            for _ = 1 to reads_per_reader do
              let snap = Session.freeze s in
              let answers = Session.answer_at s p snap in
              mine :=
                (Session.snapshot_revision snap, List.sort compare answers)
                :: !mine
            done;
            observations.(w - 1) <- !mine
          end));
  let total = ref 0 and bad = ref [] in
  Array.iter
    (List.iter (fun (rev, answers) ->
         incr total;
         match Hashtbl.find_opt expected rev with
         | Some e when e = answers -> ()
         | Some e ->
           bad :=
             Printf.sprintf "rev %d: %d answers, want %d" rev
               (List.length answers) (List.length e)
             :: !bad
         | None -> bad := Printf.sprintf "rev %d never produced" rev :: !bad))
    observations;
  check ("every observation matches sequential replay at its revision: "
         ^ String.concat "; " !bad)
    true (!bad = []);
  check_int "all reads accounted for" (readers * reads_per_reader) !total

(* ------------------------------------------------------------------ *)
(* The network server, in-process over a Unix socket *)

module Server = Obda_service.Server
module Client = Obda_service.Client

let with_server ?connections ?backlog ?max_inflight ?idle_timeout f =
  let session = Session.create () in
  Session.load_ontology session (tbox ());
  Session.load_data session (abox ());
  let path = Filename.temp_file "obda_test" ".sock" in
  Sys.remove path;
  let address = Server.Unix_socket path in
  let server =
    Server.create ?connections ?backlog ?max_inflight ?idle_timeout address
      session
  in
  let t = Thread.create (fun () -> ignore (Server.run server)) () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join t;
      Session.close session)
    (fun () -> f address server)

let starts_with prefix s = String.starts_with ~prefix s

let test_server_end_to_end () =
  with_server (fun address server ->
      let c = Client.connect address in
      check "prepare over the wire" true
        (starts_with "OK prepared" (first (Client.request c "PREPARE q q(x) <- A(x)")));
      (match Client.request c "ANSWER q" with
      | status :: tuples ->
        check_str "answer status" "OK answers=2" status;
        check_int "tuples follow" 2 (List.length tuples)
      | [] -> Alcotest.fail "no answer response");
      check_str "assert" "OK asserted added=1 atoms=3"
        (first (Client.request c "ASSERT A(c)"));
      (match Client.request c "STATS" with
      | status :: rows ->
        check_str "stats with the server rows" "OK stats=25" status;
        check "snapshot-span row present" true
          (List.exists (starts_with "server.snapshot.revisions ") rows);
        check "shed counter present and zero" true
          (List.mem "server.requests.shed 0" rows);
        check "latency quantile rows present" true
          (List.exists (starts_with "server.p50-ms ") rows
          && List.exists (starts_with "server.p95-ms ") rows
          && List.exists (starts_with "server.p99-ms ") rows)
      | [] -> Alcotest.fail "no stats response");
      (* a second concurrent connection shares the session *)
      let c2 = Client.connect address in
      check_str "second connection sees the assert" "OK answers=3"
        (first (Client.request c2 "ANSWER q"));
      (* EOF without QUIT: clean end, session stays reusable *)
      Client.close c;
      Client.close c2;
      let c3 = Client.connect address in
      (* one latency histogram per server: the requests of the closed
         connections still count in the quantiles *)
      (match Client.request c3 "STATS" with
      | _ :: rows ->
        let value key =
          List.find_map
            (fun row ->
              match String.split_on_char ' ' row with
              | [ k; v ] when k = key -> float_of_string_opt v
              | _ -> None)
            rows
        in
        List.iter
          (fun key ->
            check (key ^ " counts closed connections") true
              (match value key with Some v -> v > 0. | None -> false))
          [ "server.p50-ms"; "server.p99-ms" ]
      | [] -> Alcotest.fail "no stats response");
      check_str "session reusable after bare EOF" "OK answers=3"
        (first (Client.request c3 "ANSWER q"));
      Alcotest.(check (list string))
        "quit" [ "OK bye" ] (Client.request c3 "QUIT");
      Client.close c3;
      ignore server)

let test_server_overload () =
  (* max_inflight = 0: every real request is shed, in protocol *)
  with_server ~max_inflight:0 (fun address server ->
      let c = Client.connect address in
      let shed = first (Client.request c "STATS") in
      check "request shed with ERR class=overloaded" true
        (starts_with "ERR class=overloaded" shed);
      check "connection survives the shed" true
        (starts_with "ERR class=overloaded" (first (Client.request c "ANSWER q")));
      let rows = Server.stats_rows server in
      check "shed counter advanced" true
        (match List.assoc_opt "server.requests.shed" rows with
        | Some n -> int_of_string n >= 2
        | None -> false);
      (* QUIT is exempt from admission: clients can always leave *)
      Alcotest.(check (list string))
        "QUIT exempt from admission" [ "OK bye" ] (Client.request c "QUIT");
      Client.close c)

let test_server_idle_timeout () =
  with_server ~idle_timeout:0.3 (fun address _server ->
      let c = Client.connect address in
      (* send nothing: the server closes the connection with a budget ERR *)
      (match Client.read_response c with
      | line :: _ -> check "idle ERR line" true (starts_with "ERR class=budget" line)
      | [] -> Alcotest.fail "connection closed without the idle ERR");
      check "EOF after the idle close" true (Client.read_response c = []);
      Client.close c)

let test_server_graceful_stop () =
  let session = Session.create () in
  Session.load_ontology session (tbox ());
  Session.load_data session (abox ());
  let path = Filename.temp_file "obda_test" ".sock" in
  Sys.remove path;
  let address = Server.Unix_socket path in
  let server = Server.create ~connections:2 address session in
  let code = ref (-2) in
  let t = Thread.create (fun () -> code := Server.run server) () in
  let c = Client.connect address in
  check "served before the stop" true
    (starts_with "OK stats=" (first (Client.request c "STATS")));
  Server.request_stop server ~code:143;
  Thread.join t;
  check_int "run returns the requested code" 143 !code;
  check "socket path unlinked on the way out" false (Sys.file_exists path);
  Client.close c;
  Session.close session

(* METRICS: the Prometheus-text exposition must announce its own line
   count, parse line by line, and keep every histogram family internally
   consistent (cumulative buckets ending at +Inf = _count). *)
let test_metrics_roundtrip () =
  let module Histogram = Obda_obs.Histogram in
  let prev = Histogram.recording () in
  Histogram.set_enabled true;
  Fun.protect ~finally:(fun () -> Histogram.set_enabled prev) @@ fun () ->
  let s = Session.create () in
  Session.load_ontology s (tbox ());
  Session.load_data s (abox ());
  let exec line = fst (Serve.handle_line s line) in
  ignore (exec "PREPARE q1 q(x) <- A(x)");
  ignore (exec "ANSWER q1");
  ignore (exec "ANSWER q1");
  ignore (exec "ASSERT A(zz)");
  match exec "METRICS" with
  | [] -> Alcotest.fail "no METRICS response"
  | status :: payload ->
    let n =
      match String.split_on_char '=' status with
      | [ "OK metrics"; n ] -> int_of_string n
      | _ -> Alcotest.failf "unexpected METRICS status %S" status
    in
    check_int "announced line count matches payload" n (List.length payload);
    check "payload is non-trivial" true (n > 20);
    (* re-parse every line; accumulate histogram families *)
    let buckets = Hashtbl.create 16
    and counts = Hashtbl.create 16
    and sums = Hashtbl.create 16 in
    List.iter
      (fun line ->
        check "no blank payload lines" true (line <> "");
        if line.[0] <> '#' then begin
          let i =
            match String.rindex_opt line ' ' with
            | Some i -> i
            | None -> Alcotest.failf "unparsable metrics line %S" line
          in
          let key = String.sub line 0 i in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          let v =
            match float_of_string_opt v with
            | Some v -> v
            | None -> Alcotest.failf "non-numeric value in %S" line
          in
          match String.index_opt key '{' with
          | Some brace
            when brace >= 7 && String.sub key (brace - 7) 7 = "_bucket" ->
            let family = String.sub key 0 (brace - 7) in
            let le = String.sub key brace (String.length key - brace) in
            let cums =
              Option.value ~default:[] (Hashtbl.find_opt buckets family)
            in
            Hashtbl.replace buckets family ((le, v) :: cums)
          | _ ->
            let suffix tbl suf =
              let n = String.length suf in
              if
                String.length key > n
                && String.sub key (String.length key - n) n = suf
              then begin
                Hashtbl.replace tbl (String.sub key 0 (String.length key - n)) v;
                true
              end
              else false
            in
            ignore (suffix counts "_count" || suffix sums "_sum")
        end)
      payload;
    check "at least one histogram family" true (Hashtbl.length buckets > 0);
    check "serve.answer.latency exposed" true
      (Hashtbl.mem buckets "obda_serve_answer_latency");
    Hashtbl.iter
      (fun family cums_rev ->
        let cums = List.rev cums_rev in
        (* cumulative counts never decrease in emission order *)
        ignore
          (List.fold_left
             (fun prev (_, v) ->
               check (family ^ " cumulative non-decreasing") true (v >= prev);
               v)
             0. cums);
        (match List.rev cums with
        | (le, last) :: _ ->
          check (family ^ " ends at +Inf") true
            (le = "{le=\"+Inf\"}" || le = "{le=\"+Inf\"} ");
          check
            (family ^ " count consistent with +Inf bucket")
            true
            (Hashtbl.find_opt counts family = Some last)
        | [] -> Alcotest.failf "%s has no buckets" family);
        check (family ^ " has a _sum") true (Hashtbl.mem sums family))
      buckets;
    (* the ANSWER latencies we just recorded are in there *)
    (match Hashtbl.find_opt counts "obda_serve_answer_latency" with
    | Some c -> check "answer latency count >= 2" true (c >= 2.)
    | None -> Alcotest.fail "obda_serve_answer_latency_count missing");
    Session.close s

(* ------------------------------------------------------------------ *)
(* access-log resilience *)

let test_access_log_write_failure () =
  let s = Session.create () in
  Session.load_data s (abox ());
  let calls = ref 0 in
  Serve.set_access_log (fun _ ->
      incr calls;
      raise (Sys_error "disk full"));
  Fun.protect
    ~finally:(fun () ->
      Serve.clear_access_log ();
      Session.close s)
    (fun () ->
      let errors_before = Serve.access_log_error_count () in
      (* the failing writer must not fail the request *)
      let lines, stop = Serve.handle_line s "ASSERT A(x)" in
      check "request still succeeds" true
        (match lines with l :: _ -> String.sub l 0 2 = "OK" | [] -> false);
      check "loop continues" false stop;
      check_int "writer was attempted once" 1 !calls;
      check_int "failure counted" (errors_before + 1)
        (Serve.access_log_error_count ());
      (* the log is disabled after the failure: no further attempts *)
      ignore (Serve.handle_line s "ASSERT A(y)");
      check_int "logging disabled after the failure" 1 !calls;
      check_int "no further failures counted" (errors_before + 1)
        (Serve.access_log_error_count ()))

let test_serve_ping_and_checkpoint_without_wal () =
  let s = Session.create () in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      Session.load_data s (abox ());
      (match fst (Serve.handle_line s "PING") with
      | [ pong ] ->
        check "pong carries the revision" true
          (String.starts_with ~prefix:"OK pong rev=2 uptime=" pong)
      | other ->
        Alcotest.failf "expected one pong line, got %d" (List.length other));
      (* CHECKPOINT without --data-dir is a typed in-protocol error *)
      let lines, stop = Serve.handle_line s "CHECKPOINT" in
      check_str "checkpoint without durability" "internal"
        (err_class (first lines));
      check "loop continues" false stop)

let suites =
  [
    ( "service",
      [
        Alcotest.test_case "protocol verbs" `Quick test_protocol_verbs;
        Alcotest.test_case "protocol skips and errors" `Quick
          test_protocol_skips_and_errors;
        Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
        Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "cache weight bound" `Quick test_cache_weight_bound;
        Alcotest.test_case "cache counters reach obs" `Quick
          test_cache_counters_reach_obs;
        Alcotest.test_case "session consistency memo" `Quick
          test_session_consistency_memo;
        Alcotest.test_case "session answers run check once" `Quick
          test_session_answer_runs_check_once;
        Alcotest.test_case "load ontology drops prepared" `Quick
          test_session_load_ontology_drops_prepared;
        Alcotest.test_case "inconsistent-data convention" `Quick
          test_session_answer_inconsistent_convention;
        Alcotest.test_case "serve: every verb" `Quick test_serve_every_verb;
        Alcotest.test_case "serve: ERR leaves session usable" `Quick
          test_serve_err_leaves_session_usable;
        Alcotest.test_case "serve: prepare once, answer many" `Quick
          test_serve_prepare_once_answer_many;
        Alcotest.test_case "serve: digest shares cache across names" `Quick
          test_serve_digest_shares_cache_across_names;
        Alcotest.test_case "cache MRU fast path" `Quick test_cache_mru_fast_path;
        Alcotest.test_case "cache failed build counts nothing" `Quick
          test_cache_failed_build_counts_nothing;
        Alcotest.test_case "cache fault site counts nothing" `Quick
          test_cache_fault_site_counts_nothing;
        Alcotest.test_case "serve: CRLF input" `Quick test_serve_crlf_input;
        Alcotest.test_case "protocol BATCH" `Quick test_protocol_batch;
        Alcotest.test_case "serve: BATCH matches individual answers" `Quick
          test_serve_batch_matches_individual;
        Alcotest.test_case "serve: BATCH errors" `Quick test_serve_batch_errors;
        Alcotest.test_case "serve: BATCH answers like ANSWER" `Quick
          test_serve_batch_answers_like_answer;
        Alcotest.test_case "session: freeze isolation" `Quick
          test_session_freeze_isolation;
        Alcotest.test_case "session: stats hook" `Quick test_session_stats_hook;
        Alcotest.test_case "budget: per-request sub-deadline" `Quick
          test_budget_sub_timeout;
        Alcotest.test_case "race: readers vs writers (snapshot property)"
          `Quick test_race_readers_vs_writers;
        Alcotest.test_case "server: end to end over a socket" `Quick
          test_server_end_to_end;
        Alcotest.test_case "server: admission control sheds in protocol"
          `Quick test_server_overload;
        Alcotest.test_case "server: idle timeout" `Quick
          test_server_idle_timeout;
        Alcotest.test_case "server: graceful stop returns the code" `Quick
          test_server_graceful_stop;
        Alcotest.test_case "METRICS exposition round-trip" `Quick
          test_metrics_roundtrip;
        Alcotest.test_case "access log absorbs write failures" `Quick
          test_access_log_write_failure;
        Alcotest.test_case "PING and CHECKPOINT without durability" `Quick
          test_serve_ping_and_checkpoint_without_wal;
      ] );
  ]
