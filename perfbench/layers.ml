(* The per-layer metrics of a traced run, in one fixed list: each names the
   public call it times and the end-to-end metrics (workload/metric) it
   should move.  A workload passes the groups its ops exercise; the rest
   print as 0, tagged as not on this workload's path. *)

open Common

let all
    ?eval
    ?pool
    ?rewrite
    ?consistency
    ?snapshot
    ?mutate
    ?wal
    ?serve
    ?transport
    ?server
    ?gc
    ?tail
    ~overhead () =
  let opt f = Option.map f in
  let eval_l = "Obda_ndl.Eval.run" in
  let eval_moves =
    "tables-par/throughput_per_s,tables-par/latency_p50_ms,serve-write/latency_p50_ms"
  in
  (* serve-read, where these dominate, is runnable but not in BENCHMARK.json *)
  let serve_moves = "serve-write/throughput_per_s,serve-read/throughput_per_s" in
  let wal_moves = "serve-write/write.p99_ms" in
  [
    layer "eval.ms" "ms" ~layer:eval_l ~moves:eval_moves
      (opt (fun (ms, _, _, _) -> ms) eval);
    layer "eval.tuples_read" "count" ~layer:eval_l ~moves:eval_moves
      (opt (fun (_, r, _, _) -> float_of_int r) eval);
    layer "eval.generated_tuples" "count" ~layer:eval_l ~moves:eval_moves
      (opt (fun (_, _, g, _) -> float_of_int g) eval);
    layer "eval.derived_per_read" "ratio" ~layer:eval_l ~moves:eval_moves
      (opt (fun (_, r, g, _) -> float_of_int g /. float_of_int (max 1 r)) eval);
    layer "eval.minor_words_per_tuple" "words" ~layer:(eval_l ^ "+Gc.quick_stat")
      ~moves:eval_moves
      (opt (fun (_, _, _, w) -> w) eval);
    layer "pool.eval.ms" "ms" ~layer:"Obda_ndl.Eval.run~pool(2 workers)"
      ~moves:"tables-par/throughput_per_s,tables-par/latency_p90_ms"
      (opt fst pool);
    layer "pool.speedup" "x" ~layer:"Obda_ndl.Eval.run~pool vs 1 worker"
      ~moves:"tables-par/throughput_per_s"
      (opt snd pool);
    layer "rewrite.ms" "ms" ~layer:"Obda_rewriting.Omq.rewrite" ~moves:"none(guards against work moving into the rewriter)"
      (opt fst rewrite);
    layer "rewrite.clauses" "count" ~layer:"Obda_ndl.Ndl.num_clauses" ~moves:"none"
      (opt (fun (_, c) -> float_of_int c) rewrite);
    layer "consistency.ms" "ms"
      ~layer:"Obda_data.Abox.consistent|Obda_service.Session.consistent_at"
      ~moves:"serve-write/latency_p50_ms"
      (opt fst consistency);
    layer "consistency.memo_hit_ratio" "ratio"
      ~layer:"Omq consistency memo|Obda_service.Session.consistency_cached"
      ~moves:"serve-write/latency_p50_ms"
      (opt snd consistency);
    layer "snapshot.ms" "ms" ~layer:"Obda_service.Session.freeze"
      ~moves:"serve-write/write.p50_ms" snapshot;
    layer "mutate.ms" "ms"
      ~layer:"Obda_service.Session.assert_facts|retract_facts (+Serve.attach_wal)"
      ~moves:"serve-write/write.p50_ms" mutate;
    layer "wal.bytes_per_mutation" "B" ~layer:"Obda_service.Wal.stats_rows" ~moves:wal_moves
      (opt (fun (b, _, _) -> b) wal);
    layer "wal.syncs_per_mutation" "ratio" ~layer:"Obda_service.Wal.stats_rows"
      ~moves:wal_moves
      (opt (fun (_, s, _) -> s) wal);
    layer "wal.checkpoints" "count" ~layer:"Obda_service.Wal.stats_rows" ~moves:wal_moves
      (opt (fun (_, _, c) -> float_of_int c) wal);
    layer "parse.ms" "ms" ~layer:"Obda_service.Protocol.parse" ~moves:serve_moves
      (opt (fun (p, _, _) -> p) serve);
    layer "serve.exec_ms" "ms" ~layer:"Obda_service.Serve.handle_line" ~moves:serve_moves
      (opt (fun (_, e, _) -> e) serve);
    layer "serve.self_ms" "ms"
      ~layer:"Serve.handle_line - parse - snapshot - consistency - eval - mutate"
      ~moves:serve_moves
      (opt (fun (_, _, s) -> s) serve);
    layer "transport.ms" "ms" ~layer:"Obda_service.Client.request - Serve.handle_line"
      ~moves:"serve-write/throughput_per_s,serve-read/throughput_per_s,serve-read/latency_p50_ms"
      transport;
    layer "server.p50_ms" "ms" ~layer:"server STATS server.p50-ms" ~moves:"none(observability)"
      (opt (fun (p, _, _) -> p) server);
    layer "server.p99_ms" "ms" ~layer:"server STATS server.p99-ms" ~moves:"none(observability)"
      (opt (fun (_, p, _) -> p) server);
    layer "server.p99_gap_ms" "ms" ~layer:"client p99 - server STATS p99"
      ~moves:"none(observability)"
      (opt (fun (_, _, g) -> g) server);
    layer "gc.minor_words_per_op" "words" ~layer:"Gc.quick_stat around the traced phase"
      ~moves:"*/latency.p99_ms,*/peak_rss_mb"
      (opt fst gc);
    layer "gc.major_collections" "count" ~layer:"Gc.quick_stat around the traced phase"
      ~moves:"*/latency.p99_ms,*/peak_rss_mb"
      (opt (fun (_, m) -> float_of_int m) gc);
    (* tails measured by the untraced phase of the traced run: p99 over the
       whole phase, and serve-write's writes apart from its reads *)
    layer "latency.p99_ms" "ms" ~layer:"whole untraced phase, per op (tables*) or read (serve-*)"
      ~moves:"*/latency_p90_ms" (opt fst tail);
    layer "write.p50_ms" "ms" ~layer:"Client.request on ASSERT/RETRACT"
      ~moves:"serve-write/throughput_per_s"
      (Option.bind tail (fun (_, w) -> Option.map fst w));
    layer "write.p99_ms" "ms" ~layer:"Client.request on ASSERT/RETRACT"
      ~moves:"serve-write/throughput_per_s"
      (Option.bind tail (fun (_, w) -> Option.map snd w));
  ]
  @ List.map
      (fun (name, unit_, d) ->
        layer ("overhead." ^ name) unit_ ~layer:"traced minus untraced phase"
          ~moves:"none(tracing cost)" (Some d))
      overhead
