(* The obda command-line tool: classify OMQs, produce NDL-rewritings and
   answer queries over data files, all in the textual format of Obda_parse. *)

open Cmdliner
module Omq = Obda_rewriting.Omq
module Ndl = Obda_ndl.Ndl
module Parse = Obda_parse.Parse
module Error = Obda_runtime.Error
module Budget = Obda_runtime.Budget
module Fault = Obda_runtime.Fault
module Obs = Obda_obs.Obs

let algorithm_conv =
  let parse s =
    match Omq.algorithm_of_string s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %s" s))
  in
  let print ppf alg = Format.pp_print_string ppf (Omq.algorithm_name alg) in
  Arg.conv (parse, print)

let ontology_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "o"; "ontology" ] ~docv:"FILE" ~doc:"Ontology file.")

let query_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "q"; "query" ] ~docv:"FILE" ~doc:"Conjunctive query file.")

let data_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "data" ] ~docv:"FILE" ~doc:"Data (ABox) file.")

let algorithm_arg ~default =
  Arg.(
    value
    & opt (some algorithm_conv) default
    & info [ "a"; "algorithm" ] ~docv:"ALG"
        ~doc:"Rewriting algorithm: tw, lin, log, ucq, ucq-condensed, presto.")

let load_omq ontology query =
  let tbox = Parse.ontology_of_file ontology in
  let cq = Parse.query_of_file query in
  Omq.make tbox cq

(* The first stderr line is the machine-readable rendering
   ([class=... key=value ...]); parse errors additionally get a human caret
   display of the offending line. *)
let report_error e =
  Printf.eprintf "obda: %s\n" (Error.to_string e);
  (match e with
  | Error.Parse_error { loc; source_line = Some src; _ } ->
    Printf.eprintf "  | %s\n" src;
    (match loc.Error.column with
    | Some c when c >= 1 -> Printf.eprintf "  | %s^\n" (String.make (c - 1) ' ')
    | _ -> ())
  | _ -> ());
  exit (Error.exit_code e)

(* EPIPE surfaces as [Sys_error "...: Broken pipe"] rather than through the
   signal handler: the runtime only runs OCaml signal code at safepoints, so
   the failed write usually raises first.  Either path exits 141. *)
let is_broken_pipe msg =
  let suffix = "Broken pipe" in
  let n = String.length msg and l = String.length suffix in
  n >= l && String.sub msg (n - l) l = suffix

let handle_errors f =
  try f () with
  | Sys_error msg when is_broken_pipe msg -> exit 141
  | exn -> (
    match Error.of_exn exn with
    | Some e -> report_error e
    | None -> report_error (Error.Internal (Printexc.to_string exn)))

(* Shared resource-budget flags; every limit violation exits with code 4. *)
let budget_term =
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock allowance for the whole request.  Exceeding it \
             terminates with exit code 4.")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Cap on the work units (chase firings, rewriting expansions, \
             evaluation joins) the request may perform.")
  in
  let max_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-size" ] ~docv:"N"
          ~doc:
            "Cap on the output units (clauses, tuples, chase elements) the \
             request may produce.")
  in
  let make timeout max_steps max_size =
    Budget.create ?timeout ?max_steps ?max_size ()
  in
  Term.(const make $ timeout $ max_steps $ max_size)

(* Evaluation parallelism, shared by [answer] and [serve].  The default
   comes from OBDA_JOBS so an unchanged invocation (the test corpus, CI)
   can exercise the parallel path; 1 = the sequential engine. *)
let jobs_term =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "OBDA_JOBS")
        ~doc:
          "Evaluate NDL rewritings on $(docv) worker domains.  Answers are \
           byte-identical for any $(docv); the default 1 is the sequential \
           engine.")

(* Run [f] with a worker pool when [jobs > 1] (shut down afterwards), with
   [None] — the sequential engine — otherwise. *)
let with_jobs jobs f =
  if jobs < 1 then begin
    prerr_endline "obda: --jobs must be >= 1";
    exit 124
  end
  else if jobs = 1 then f None
  else Obda_runtime.Pool.with_pool ~jobs (fun p -> f (Some p))

(* ------------------------------------------------------------------ *)
(* Fault injection (chaos testing), shared by the pipeline commands. *)

let inject_conv =
  let parse s =
    match Fault.parse_plan s with
    | Ok plan -> Ok plan
    | Error msg -> Error (`Msg msg)
  in
  let print ppf plan = Format.pp_print_string ppf (Fault.plan_to_string plan) in
  Arg.conv (parse, print)

let inject_term =
  Arg.(
    value
    & opt (some inject_conv) None
    & info [ "inject" ] ~docv:"PLAN"
        ~doc:
          "Arm a deterministic fault-injection plan: comma-separated \
           SITE@SPEC[=CLASS] directives, where SPEC is an activation number \
           (or nth:N), every:K, or random:P:SEED, and CLASS is one of \
           parse, not-applicable, budget, inconsistent, internal (default: \
           the site's own class).  See $(b,obda chaos-list) for the sites.  \
           Example: --inject 'chase.step@17=budget'.")

(* Arm after the sinks are installed; the [at_exit] handler registered here
   runs BEFORE the telemetry teardown (LIFO), so the plan is disarmed — and
   the activations that fired are reported for replay — before any guarded
   sink write of the final flush could itself be injected. *)
let arm_faults = function
  | None -> ()
  | Some plan ->
    Fault.arm plan;
    at_exit (fun () ->
        let fired = Fault.fired () in
        Fault.disarm ();
        try
          List.iter
            (fun (s, n) ->
              Printf.eprintf "# fault: fired %s@%d\n" (Fault.site_name s) n)
            fired;
          flush stderr
        with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Telemetry flags, shared by the pipeline commands. *)

type telemetry = {
  trace : string option;  (* JSON-lines destination; "-" = stderr *)
  metrics_json : string option;  (* JSON-lines destination; "-" = stdout *)
  stats : bool;
}

let telemetry_term =
  let trace =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a JSON-lines trace of the request (one object per \
             pipeline span as it completes, then one per final metric) to \
             $(docv); without $(docv), or with -, write to stderr.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the spans and metrics of the request as JSON lines to \
             $(docv) (- for stdout).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print a human-readable telemetry summary (span tree, metric \
             table, budget headroom) on stderr when the request finishes.")
  in
  let make trace metrics_json stats = { trace; metrics_json; stats } in
  Term.(const make $ trace $ metrics_json $ stats)

let pp_budget_headroom ppf budget =
  if not (Budget.is_limited budget) then
    Format.fprintf ppf "budget: unlimited@."
  else begin
    let lim = Budget.limits budget in
    (match (lim.Budget.max_steps, Budget.steps_remaining budget) with
    | Some l, Some r ->
      Format.fprintf ppf "budget.steps: %d spent, %d remaining of %d@."
        (Budget.steps_spent budget) r l
    | _ -> ());
    (match (lim.Budget.max_size, Budget.size_remaining budget) with
    | Some l, Some r ->
      Format.fprintf ppf "budget.size: %d spent, %d remaining of %d@."
        (Budget.size_spent budget) r l
    | _ -> ());
    match (lim.Budget.timeout, Budget.wall_remaining budget) with
    | Some l, Some r ->
      Format.fprintf ppf "budget.wall: %.3fs remaining of %.3fs@." r l
    | _ -> ()
  end

(* Install the requested sinks and register teardown with [at_exit], so the
   trace is flushed and the summary printed on every exit path —
   [report_error] terminates via [Stdlib.exit], which does not unwind
   [Fun.protect] but does run [at_exit] handlers. *)
let init_telemetry ?(budget = Budget.none) t =
  if t.trace = None && t.metrics_json = None && not t.stats then ()
  else begin
    let to_close = ref [] in
    let writer dest ~dash =
      match dest with
      | "-" ->
        fun line ->
          output_string dash line;
          output_char dash '\n'
      | path ->
        let oc = open_out path in
        to_close := oc :: !to_close;
        fun line ->
          output_string oc line;
          output_char oc '\n'
    in
    let sinks = ref [] in
    (match t.trace with
    | Some dest -> sinks := Obs.json_sink (writer dest ~dash:stderr) :: !sinks
    | None -> ());
    (match t.metrics_json with
    | Some dest -> sinks := Obs.json_sink (writer dest ~dash:stdout) :: !sinks
    | None -> ());
    let collector = if t.stats then Some (Obs.Collector.create ()) else None in
    (match collector with
    | Some c -> sinks := Obs.Collector.sink c :: !sinks
    | None -> ());
    Obs.install (Obs.tee !sinks);
    let torn_down = ref false in
    at_exit (fun () ->
        if not !torn_down then begin
          torn_down := true;
          Obs.uninstall ();
          (* stdout/stderr may be a pipe closed by the consumer: the flush
             must never abort the remaining teardown *)
          (try
             match collector with
             | Some c ->
               Format.eprintf "%a" Obs.Collector.pp c;
               pp_budget_headroom Format.err_formatter budget;
               Format.pp_print_flush Format.err_formatter ()
             | None -> ()
           with Sys_error _ -> ());
          (try flush stdout with Sys_error _ -> ());
          (try flush stderr with Sys_error _ -> ());
          List.iter (fun oc -> try close_out oc with Sys_error _ -> ()) !to_close
        end)
  end

(* ------------------------------------------------------------------ *)

let classify_cmd =
  let run ontology query =
    handle_errors (fun () ->
        let omq = load_omq ontology query in
        let c = Omq.classify omq in
        Format.printf "%a@." Omq.pp_classification c;
        Format.printf "applicable algorithms:";
        List.iter
          (fun alg ->
            if Omq.applicable alg omq then
              Format.printf " %s" (Omq.algorithm_name alg))
          Omq.all_algorithms;
        Format.printf "@.")
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Place the OMQ in the complexity landscape of the paper's Fig. 1.")
    Term.(const run $ ontology_arg $ query_arg)

let rewrite_cmd =
  let run ontology query algorithm over_complete budget inject telemetry =
    handle_errors (fun () ->
        init_telemetry ~budget telemetry;
        arm_faults inject;
        let omq = load_omq ontology query in
        let alg =
          match algorithm with
          | Some a -> a
          | None -> Omq.default_algorithm omq
        in
        if not (Omq.applicable alg omq) then
          Error.not_applicable ~algorithm:(Omq.algorithm_name alg)
            "side conditions do not hold for this OMQ";
        let over = if over_complete then `Complete else `Arbitrary in
        let q = Omq.rewrite ~budget ~over alg omq in
        Format.printf "%a" Ndl.pp q;
        if telemetry.stats then
          Format.printf
            "# clauses=%d size=%d depth=%d width=%d linear=%b skinny-depth=%.1f@."
            (Ndl.num_clauses q) (Ndl.size q) (Ndl.depth q) (Ndl.width q)
            (Ndl.is_linear q) (Ndl.skinny_depth q))
  in
  let over_complete =
    Arg.(
      value & flag
      & info [ "complete" ]
          ~doc:"Produce the rewriting over complete data instances (skip the \
                ∗-transformation).")
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Print an NDL-rewriting of the OMQ.")
    Term.(
      const run $ ontology_arg $ query_arg
      $ algorithm_arg ~default:None
      $ over_complete $ budget_term $ inject_term $ telemetry_term)

let answer_cmd =
  let run ontology query data mapping source algorithm use_chase budget jobs
      fallback retry fail_inconsistent explain naive inject telemetry =
    handle_errors (fun () ->
        init_telemetry ~budget telemetry;
        arm_faults inject;
        let omq = load_omq ontology query in
        let on_inconsistent = if fail_inconsistent then `Error else `All_tuples in
        let answers =
          with_jobs jobs @@ fun pool ->
          match (mapping, source) with
          | Some mf, Some sf ->
            (* virtual OBDA: unfold the rewriting through the mapping and
               evaluate directly over the relational source *)
            let m = Parse.mapping_of_file mf in
            let src = Parse.source_of_file sf in
            let alg =
              match algorithm with
              | Some a -> a
              | None -> Omq.default_algorithm omq
            in
            let rewriting = Omq.rewrite ~budget alg omq in
            Obda_mapping.Mapping.answers_virtual m rewriting src
          | None, None -> (
            match data with
            | Some d ->
              let abox = Parse.data_of_file d in
              if explain && not use_chase then
                List.iter
                  (fun line -> Printf.eprintf "# plan: %s\n" line)
                  (Omq.explain ~budget ~naive ?algorithm omq abox);
              if use_chase then
                Omq.answer_certain ~budget ~on_inconsistent omq abox
              else if fallback || retry > 0 then begin
                let chain =
                  if fallback then Option.map Omq.default_chain algorithm
                  else
                    (* --retry alone: retry the one requested algorithm *)
                    Some
                      [
                        (match algorithm with
                        | Some a -> a
                        | None -> Omq.default_algorithm omq);
                      ]
                in
                let r =
                  Omq.answer_with_fallback ?pool ~budget
                    ~retry:{ Omq.max_retries = retry; escalation = 2. }
                    ?chain ~on_inconsistent omq abox
                in
                let attempt_name (a : Omq.attempt) =
                  if a.Omq.trial > 1 then
                    Printf.sprintf "%s (trial %d)"
                      (Omq.algorithm_name a.Omq.algorithm) a.Omq.trial
                  else Omq.algorithm_name a.Omq.algorithm
                in
                (match r.Omq.attempts with
                | [] | [ { Omq.outcome = Ok (); _ } ] ->
                  (* nothing fell through: stay quiet *)
                  ()
                | attempts ->
                  List.iter
                    (fun (a : Omq.attempt) ->
                      match a.Omq.outcome with
                      | Error e ->
                        Printf.eprintf "# fallback: %s failed after %.3fs: %s\n"
                          (attempt_name a) a.Omq.duration (Error.to_string e)
                      | Ok () ->
                        Printf.eprintf "# fallback: answered by %s in %.3fs\n"
                          (attempt_name a) a.Omq.duration)
                    attempts);
                r.Omq.answers
              end
              else
                Omq.answer ?pool ~budget ~naive ~on_inconsistent ?algorithm omq
                  abox
            | None ->
              prerr_endline "answer: provide -d, or --mapping with --source";
              exit 1)
          | _ ->
            prerr_endline "answer: --mapping and --source go together";
            exit 1
        in
        if Obda_cq.Cq.is_boolean omq.Omq.cq then
          print_endline (if answers <> [] then "yes" else "no")
        else
          List.iter
            (fun tuple ->
              print_endline
                (String.concat "," (List.map Obda_syntax.Symbol.name tuple)))
            answers)
  in
  let use_chase =
    Arg.(
      value & flag
      & info [ "chase" ]
          ~doc:"Answer on the canonical model instead of via rewriting.")
  in
  let data_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "d"; "data" ] ~docv:"FILE" ~doc:"Data (ABox) file.")
  in
  let mapping =
    Arg.(
      value
      & opt (some file) None
      & info [ "m"; "mapping" ] ~docv:"FILE" ~doc:"GAV mapping file.")
  in
  let source =
    Arg.(
      value
      & opt (some file) None
      & info [ "s"; "source" ] ~docv:"FILE"
          ~doc:"Relational source file (used with --mapping).")
  in
  let fallback =
    Arg.(
      value & flag
      & info [ "fallback" ]
          ~doc:
            "When the requested algorithm is not applicable or runs out of \
             budget, fall back to the always-applicable baselines (with -d).  \
             The attempts are reported on stderr as comment lines.")
  in
  let retry =
    Arg.(
      value & opt int 0
      & info [ "retry" ] ~docv:"N"
          ~doc:
            "Retry an algorithm whose step/size sub-budget ran out up to \
             $(docv) times, doubling the sub-budget limits each trial; the \
             --timeout wall deadline still bounds the whole request.  \
             Without --fallback the chain is just the requested algorithm.")
  in
  let fail_inconsistent =
    Arg.(
      value & flag
      & info [ "fail-inconsistent" ]
          ~doc:
            "Exit with code 5 when the data is inconsistent with the \
             ontology, instead of returning every tuple over the active \
             domain (the paper's convention).")
  in
  let explain_flag =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the evaluator's chosen atom order and per-atom access \
             strategy for every clause of the rewriting as '# plan:' \
             comment lines on stderr (with -d; ignored with --chase or \
             --mapping).")
  in
  let naive_flag =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:
            "Evaluate with the naive baseline plan — clause bodies in their \
             written order, maintained-index probes only, and full \
             re-derivation every fixpoint round — instead of the cost-based \
             planner and semi-naive evaluation (the eval-plan bench \
             baseline).")
  in
  Cmd.v
    (Cmd.info "answer"
       ~doc:
         "Certain answers of the OMQ over a data file, or over a relational \
          source through a GAV mapping.")
    Term.(
      const run $ ontology_arg $ query_arg $ data_opt $ mapping $ source
      $ algorithm_arg ~default:None
      $ use_chase $ budget_term $ jobs_term $ fallback $ retry
      $ fail_inconsistent $ explain_flag $ naive_flag $ inject_term
      $ telemetry_term)

let stats_cmd =
  let run ontology =
    handle_errors (fun () ->
        let tbox = Parse.ontology_of_file ontology in
        let module Tbox = Obda_ontology.Tbox in
        Format.printf "axioms: %d (with normalisation: %d)@."
          (List.length (Tbox.axioms tbox))
          (Tbox.size tbox);
        Format.printf "roles (R_T): %d@." (List.length (Tbox.roles tbox));
        Format.printf "concept names: %d@."
          (List.length (Tbox.concept_names tbox));
        Format.printf "depth: %a@." Tbox.pp_depth (Tbox.depth tbox);
        Format.printf "has bottom: %b@." (Tbox.has_bottom tbox))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Ontology statistics (depth, signature, …).")
    Term.(const run $ ontology_arg)

let gen_data_cmd =
  (* wrapped in [handle_errors] so a consumer closing the pipe early
     ([obda gen-data | head]) exits 141, not with a backtrace *)
  let run vertices edge_prob concept_prob seed =
    handle_errors (fun () ->
        let abox =
          Obda_data.Generate.erdos_renyi ~seed
            ~edge_pred:(Obda_syntax.Symbol.intern "R")
            ~concepts:
              [ Obda_syntax.Symbol.intern "A"; Obda_syntax.Symbol.intern "B" ]
            { Obda_data.Generate.vertices; edge_prob; concept_prob }
        in
        print_string (Parse.data_to_string abox);
        flush stdout)
  in
  let vertices =
    Arg.(value & opt int 1000 & info [ "vertices" ] ~docv:"V" ~doc:"Vertices.")
  in
  let edge_prob =
    Arg.(
      value & opt float 0.05
      & info [ "edge-prob" ] ~docv:"P" ~doc:"Directed edge probability.")
  in
  let concept_prob =
    Arg.(
      value & opt float 0.05
      & info [ "concept-prob" ] ~docv:"Q" ~doc:"Concept marker probability.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "gen-data"
       ~doc:"Generate an Erdős–Rényi data instance (Table 2 of the paper).")
    Term.(const run $ vertices $ edge_prob $ concept_prob $ seed)

let chase_cmd =
  let run ontology data depth budget inject telemetry =
    handle_errors (fun () ->
        init_telemetry ~budget telemetry;
        arm_faults inject;
        let tbox = Parse.ontology_of_file ontology in
        let abox = Parse.data_of_file data in
        let canon = Obda_chase.Canonical.make ~budget tbox abox ~depth in
        Format.printf "canonical model to depth %d: %d elements@." depth
          (Obda_chase.Canonical.num_elements canon);
        List.iter
          (fun e ->
            let labels =
              List.filter
                (fun a -> Obda_chase.Canonical.unary_holds canon a e)
                (Obda_ontology.Tbox.concept_names tbox)
            in
            Format.printf "  %a : {%s}@." Obda_chase.Canonical.pp_element e
              (String.concat ", "
                 (List.map Obda_syntax.Symbol.name labels)))
          (Obda_chase.Canonical.elements canon))
  in
  let depth =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"D" ~doc:"Materialisation depth for nulls.")
  in
  Cmd.v
    (Cmd.info "chase"
       ~doc:"Print the canonical model C_{T,A} to a bounded null depth.")
    Term.(const run $ ontology_arg $ data_arg $ depth $ budget_term
          $ inject_term $ telemetry_term)

(* --tcp HOST:PORT (or just PORT, meaning 127.0.0.1). *)
let tcp_conv =
  let parse s =
    match int_of_string_opt s with
    | Some port -> Ok ("127.0.0.1", port)
    | None -> (
      match String.rindex_opt s ':' with
      | None -> Error (`Msg "expected HOST:PORT or PORT")
      | Some i -> (
        let host = String.sub s 0 i in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        with
        | Some port -> Ok (host, port)
        | None -> Error (`Msg "expected HOST:PORT or PORT")))
  in
  let print ppf (host, port) = Format.fprintf ppf "%s:%d" host port in
  Arg.conv (parse, print)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_arg =
  Arg.(
    value
    & opt (some tcp_conv) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"TCP endpoint ($(docv), or just PORT for 127.0.0.1).")

let server_address socket tcp =
  match (socket, tcp) with
  | Some _, Some _ ->
    prerr_endline "obda: --socket and --tcp are mutually exclusive";
    exit 124
  | Some path, None -> Some (Obda_service.Server.Unix_socket path)
  | None, Some (host, port) -> Some (Obda_service.Server.Tcp (host, port))
  | None, None -> None

let serve_cmd =
  let module Service = Obda_service in
  let run ontology data script cache_entries cache_size socket tcp connections
      backlog max_inflight idle_timeout request_timeout access_log slow_ms
      data_dir durability checkpoint_every budget jobs inject telemetry =
    handle_errors (fun () ->
        init_telemetry ~budget telemetry;
        arm_faults inject;
        if data_dir = None && (durability <> None || checkpoint_every <> None)
        then begin
          prerr_endline
            "obda: --durability and --checkpoint-every need --data-dir";
          exit 124
        end;
        (match checkpoint_every with
        | Some n when n < 1 ->
          prerr_endline "obda: --checkpoint-every must be >= 1";
          exit 124
        | _ -> ());
        let wal_policy =
          match durability with
          | None -> Service.Wal.Always
          | Some spec -> (
            match Service.Wal.sync_policy_of_string spec with
            | Ok p -> p
            | Error msg ->
              Printf.eprintf "obda: --durability: %s\n" msg;
              exit 124)
        in
        if jobs < 1 then begin
          prerr_endline "obda: --jobs must be >= 1";
          exit 124
        end;
        let address = server_address socket tcp in
        if address <> None && jobs > 1 then begin
          prerr_endline
            "obda: the network server requires --jobs 1; use --connections N \
             to parallelise across connections";
          exit 124
        end;
        (* The serving path always measures: per-verb latency/size
           histograms feed the METRICS verb in every serve mode. *)
        Obda_obs.Histogram.set_enabled true;
        (* --slow-ms alone still wants its slow-query lines somewhere:
           imply an access log on stderr. *)
        (match
           match access_log with
           | None when slow_ms <> None -> Some "-"
           | dest -> dest
         with
        | None -> ()
        | Some dest ->
          let write =
            match dest with
            | "-" ->
              fun line ->
                output_string stderr line;
                output_char stderr '\n';
                flush stderr
            | path ->
              let oc =
                open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
              in
              at_exit (fun () -> try close_out oc with Sys_error _ -> ());
              fun line ->
                output_string oc line;
                output_char oc '\n';
                (* flushed per line so tail -f (and the smoke script)
                   observe requests as they complete *)
                flush oc
          in
          Service.Serve.set_access_log ?slow_ms write);
        let session =
          Service.Session.create ~budget ?cache_entries
            ?cache_weight:cache_size ~jobs ()
        in
        let wal = ref None in
        Fun.protect
          ~finally:(fun () ->
            (match !wal with
            | Some w ->
              (* a final checkpoint makes the next start instant (empty
                 replay); best-effort — the WAL alone already carries
                 every acknowledged mutation *)
              (try ignore (Service.Serve.checkpoint_now session w)
               with _ -> ());
              Service.Serve.detach_wal session;
              Service.Wal.close w
            | None -> ());
            Service.Session.close session)
          (fun () ->
            (match data_dir with
            | None -> ()
            | Some dir ->
              let w, recovered =
                Service.Wal.open_ ~policy:wal_policy ?checkpoint_every dir
              in
              wal := Some w;
              List.iter
                (fun warning -> Printf.eprintf "obda: wal: %s\n%!" warning)
                recovered.Service.Wal.warnings;
              (* restore recovered state BEFORE hooking mutations to the
                 log, so the restore itself is not re-appended *)
              (match recovered.Service.Wal.tbox with
              | Some tbox -> Service.Session.load_ontology session tbox
              | None -> ());
              if
                recovered.Service.Wal.checkpoint_seq <> None
                || recovered.Service.Wal.replayed > 0
              then
                Service.Session.load_data session recovered.Service.Wal.abox;
              List.iter
                (fun (name, algorithm, cq_text) ->
                  ignore
                    (Service.Session.prepare session ~name ~algorithm
                       (Parse.query_of_string cq_text)))
                recovered.Service.Wal.prepared;
              Service.Serve.attach_wal session w;
              Printf.eprintf
                "obda: durable session in %s (policy=%s, checkpoint=%s, \
                 replayed=%d record%s)\n\
                 %!"
                dir
                (Service.Wal.sync_policy_to_string wal_policy)
                (match recovered.Service.Wal.checkpoint_seq with
                | Some seq -> Printf.sprintf "seq %d" seq
                | None -> "none")
                recovered.Service.Wal.replayed
                (if recovered.Service.Wal.replayed = 1 then "" else "s"));
            (match ontology with
            | Some file ->
              Service.Session.load_ontology session
                (Parse.ontology_of_file file)
            | None -> ());
            (match data with
            | Some file ->
              Service.Session.load_data session (Parse.data_of_file file)
            | None -> ());
            match address with
            | Some address ->
              if script <> None then begin
                prerr_endline "obda: --script does not combine with a socket";
                exit 124
              end;
              let server =
                Service.Server.create ?connections ?backlog ?max_inflight
                  ?idle_timeout ?request_timeout address session
              in
              (* graceful shutdown: stop accepting, drain requests in
                 flight, then exit through the normal teardown with the
                 conventional 128+signal code *)
              List.iter
                (fun (signal, code) ->
                  try
                    Sys.set_signal signal
                      (Sys.Signal_handle
                         (fun _ -> Service.Server.request_stop server ~code))
                  with Invalid_argument _ | Sys_error _ -> ())
                [ (Sys.sigint, 130); (Sys.sigterm, 143) ];
              Printf.eprintf "obda: serving on %s (connections=%d)\n%!"
                (Service.Server.address_string
                   (Service.Server.address server))
                (Option.value connections ~default:4);
              let on_drain =
                Option.map
                  (fun w () ->
                    ignore (Service.Serve.checkpoint_now session w))
                  !wal
              in
              let code = Service.Server.run ?on_drain server in
              if code <> 0 then begin
                (* exit bypasses Fun.protect: close the log here so the
                   SIGTERM drain checkpoint is followed by a final sync *)
                (match !wal with
                | Some w ->
                  Service.Serve.detach_wal session;
                  Service.Wal.close w
                | None -> ());
                exit code
              end
            | None -> (
              match script with
              | Some file ->
                let ic = open_in file in
                Fun.protect
                  ~finally:(fun () -> close_in_noerr ic)
                  (fun () -> Service.Serve.run_channels session ic stdout)
              | None -> Service.Serve.run_channels session stdin stdout)))
  in
  let ontology =
    Arg.(
      value
      & opt (some file) None
      & info [ "o"; "ontology" ] ~docv:"FILE" ~doc:"Preload an ontology file.")
  in
  let data =
    Arg.(
      value
      & opt (some file) None
      & info [ "d"; "data" ] ~docv:"FILE" ~doc:"Preload a data (ABox) file.")
  in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Replay a protocol script from $(docv) instead of reading \
             requests from stdin.")
  in
  let cache_entries =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Bound the rewriting cache to $(docv) entries (LRU eviction).")
  in
  let cache_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-size" ] ~docv:"N"
          ~doc:
            "Bound the rewriting cache to a total of $(docv) NDL atoms \
             across resident rewritings (LRU eviction).")
  in
  let connections =
    Arg.(
      value
      & opt (some int) None
      & info [ "connections" ] ~docv:"N"
          ~doc:
            "Serve up to $(docv) connections concurrently (default 4; \
             socket mode).")
  in
  let backlog =
    Arg.(
      value
      & opt (some int) None
      & info [ "backlog" ] ~docv:"N"
          ~doc:
            "Bound the accepted-but-unclaimed connection queue to $(docv) \
             (default 16); beyond it connections are shed with ERR \
             class=overloaded.")
  in
  let max_inflight =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admit at most $(docv) concurrently executing requests (default: \
             --connections); excess requests get an in-protocol ERR \
             class=overloaded and the connection stays open.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Close a connection that sends no request for $(docv) seconds \
             (after an ERR class=budget line).")
  in
  let request_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock cap per request, combined with the session --timeout \
             (the tighter deadline wins).")
  in
  let access_log =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per request to $(docv) (id, connection, \
             verb, data revision, outcome class, duration, cache hit/miss); \
             without $(docv), or with -, write to stderr.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Also log the span tree of every request that takes at least \
             $(docv) milliseconds (to the --access-log destination; stderr \
             if none was given).  While armed, request spans are routed to \
             the slow-query collector instead of --trace sinks.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Durable session state in $(docv): every effective mutation is \
             appended to a write-ahead log before its OK line, checkpoints \
             snapshot the full session (CHECKPOINT verb or \
             --checkpoint-every), and on restart the newest checkpoint is \
             restored and the log tail replayed — a torn final record (a \
             crash mid-append) is truncated with a warning, never refused.")
  in
  let durability =
    Arg.(
      value
      & opt (some string) None
      & info [ "durability" ] ~docv:"POLICY"
          ~doc:
            "WAL sync policy: $(b,always) (fsync per record, the default), \
             $(b,interval:MS) (fsync at most once per window), $(b,never) \
             (leave syncing to the OS).  Requires --data-dir.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Write a checkpoint and truncate the log after every $(docv) \
             WAL records.  Requires --data-dir.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve queries over a long-lived session: a newline-delimited \
          protocol (LOAD, PREPARE, ANSWER, BATCH, ASSERT, RETRACT, STATS, \
          METRICS, QUIT) on stdin/stdout, with prepared queries backed by a \
          content-addressed rewriting cache.  Each request runs under a \
          fresh sub-budget of the session budget; failures are reported as \
          in-protocol ERR lines, leaving the session usable.  With --jobs N \
          each evaluation (an ANSWER, or one query of a BATCH at a time) \
          is spread over N worker domains with byte-identical responses.  With --socket or --tcp the \
          protocol is served over the network instead: --connections \
          concurrent clients against one shared session, every \
          ANSWER/BATCH isolated on a copy-on-write ABox snapshot, with \
          admission control, idle/request timeouts and graceful drain on \
          SIGTERM/SIGINT.  With --data-dir the session is durable: a \
          write-ahead log captures every mutation before its OK, \
          checkpoints compact it, and a restart (even after kill -9) \
          recovers exactly the acknowledged state.")
    Term.(
      const run $ ontology $ data $ script $ cache_entries $ cache_size
      $ socket_arg $ tcp_arg $ connections $ backlog $ max_inflight
      $ idle_timeout $ request_timeout $ access_log $ slow_ms $ data_dir
      $ durability $ checkpoint_every $ budget_term $ jobs_term $ inject_term
      $ telemetry_term)

let client_cmd =
  let module Service = Obda_service in
  let run socket tcp script retry =
    handle_errors (fun () ->
        if retry < 0 then begin
          prerr_endline "obda: --retry must be >= 0";
          exit 124
        end;
        let address =
          match server_address socket tcp with
          | Some a -> a
          | None ->
            prerr_endline "obda: client needs --socket or --tcp";
            exit 124
        in
        let client =
          try Service.Client.connect ~retries:retry address
          with Unix.Unix_error (e, _, _) ->
            Printf.eprintf "obda: cannot connect to %s: %s\n"
              (Service.Server.address_string address)
              (Unix.error_message e);
            exit 1
        in
        Fun.protect
          ~finally:(fun () -> Service.Client.close client)
          (fun () ->
            let serve_input ic =
              let rec loop () =
                match In_channel.input_line ic with
                | None -> ()
                | Some line ->
                  let responses = Service.Client.request client line in
                  List.iter print_endline responses;
                  flush stdout;
                  let quit =
                    match responses with [ "OK bye" ] -> true | _ -> false
                  in
                  if not quit then loop ()
              in
              loop ()
            in
            match script with
            | Some file ->
              let ic = open_in file in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> serve_input ic)
            | None -> serve_input stdin))
  in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Send the request lines of $(docv) instead of reading from \
             stdin.")
  in
  let retry =
    Arg.(
      value & opt int 0
      & info [ "retry" ] ~docv:"N"
          ~doc:
            "Retry a refused connection (server not yet bound) up to \
             $(docv) times with exponential backoff and jitter — the \
             readiness poll of the smoke scripts: obda client --retry 20 \
             <<< PING.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Connect to a running obda serve socket and exchange protocol \
          lines: requests from stdin (or --script), responses to stdout.")
    Term.(const run $ socket_arg $ tcp_arg $ script $ retry)

(* ------------------------------------------------------------------ *)
(* obda top: poll METRICS and render a refreshing terminal dashboard. *)

(* One METRICS exposition parsed into plain samples and histograms.  A
   histogram is its cumulative (upper-bound, count) buckets in ascending
   order — enough to answer quantile queries client-side. *)
type metrics_sample = {
  values : (string, float) Hashtbl.t;
  hists : (string, (float * int) list) Hashtbl.t;
}

let parse_le s =
  if s = "+Inf" then Some infinity else float_of_string_opt s

let parse_metrics lines =
  let values = Hashtbl.create 64 in
  let hists = Hashtbl.create 8 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | None -> ()
        | Some sp -> (
          let name = String.sub line 0 sp in
          let value =
            float_of_string_opt
              (String.sub line (sp + 1) (String.length line - sp - 1))
          in
          match value with
          | None -> ()
          | Some v -> (
            match String.index_opt name '{' with
            | None -> Hashtbl.replace values name v
            | Some brace ->
              let base = String.sub name 0 brace in
              let suffix = "_bucket" in
              if String.length base > String.length suffix
                 && String.sub base
                      (String.length base - String.length suffix)
                      (String.length suffix)
                    = suffix
              then begin
                let hist =
                  String.sub base 0 (String.length base - String.length suffix)
                in
                let labels =
                  String.sub name (brace + 1) (String.length name - brace - 1)
                in
                let le_prefix = "le=\"" in
                match
                  if String.starts_with ~prefix:le_prefix labels then
                    match String.index_opt labels '}' with
                    | Some close when close >= String.length le_prefix + 1 ->
                      parse_le
                        (String.sub labels (String.length le_prefix)
                           (close - String.length le_prefix - 1))
                    | _ -> None
                  else None
                with
                | None -> ()
                | Some le ->
                  let prev =
                    Option.value (Hashtbl.find_opt hists hist) ~default:[]
                  in
                  Hashtbl.replace hists hist ((le, int_of_float v) :: prev)
              end)))
    lines;
  (* buckets arrived in ascending le order and were prepended *)
  Hashtbl.filter_map_inplace (fun _ b -> Some (List.rev b)) hists;
  { values; hists }

(* Quantile over cumulative exposition buckets, same convention as
   [Obda_obs.Histogram.quantile]: upper bound of the bucket holding the
   rank-[ceil (q * total)] smallest value. *)
let sample_quantile sample name q =
  match Hashtbl.find_opt sample.hists name with
  | None | Some [] -> None
  | Some buckets ->
    let total =
      List.fold_left (fun acc (_, cum) -> max acc cum) 0 buckets
    in
    if total = 0 then None
    else begin
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
      List.find_map
        (fun (le, cum) -> if cum >= rank then Some le else None)
        buckets
    end

let top_cmd =
  let module Service = Obda_service in
  let run socket tcp interval count =
    handle_errors (fun () ->
        let address =
          match server_address socket tcp with
          | Some a -> a
          | None ->
            prerr_endline "obda: top needs --socket or --tcp";
            exit 124
        in
        if interval <= 0. then begin
          prerr_endline "obda: --interval must be > 0";
          exit 124
        end;
        (* a fresh connection per poll: a shed or idle-closed connection
           never wedges the dashboard *)
        let poll () =
          let client =
            try Service.Client.connect address
            with Unix.Unix_error (e, _, _) ->
              Printf.eprintf "obda: cannot connect to %s: %s\n"
                (Service.Server.address_string address)
                (Unix.error_message e);
              exit 1
          in
          Fun.protect
            ~finally:(fun () -> Service.Client.close client)
            (fun () ->
              (* PING first: it is admission-exempt, so it distinguishes
                 "alive but saturated" (pong, then possibly an overloaded
                 METRICS) from "dead" (no pong at all) *)
              (match Service.Client.request client "PING" with
              | pong :: _ when String.starts_with ~prefix:"OK pong" pong -> ()
              | pong :: _ ->
                Printf.eprintf "obda: liveness probe failed: %s\n" pong;
                exit 1
              | [] ->
                prerr_endline "obda: no pong (server gone?)";
                exit 1);
              match Service.Client.request client "METRICS" with
              | first :: rest
                when String.starts_with ~prefix:"OK metrics=" first ->
                parse_metrics rest
              | first :: _ ->
                Printf.eprintf "obda: unexpected METRICS response: %s\n" first;
                exit 1
              | [] ->
                prerr_endline "obda: empty METRICS response (server gone?)";
                exit 1)
        in
        let fv sample name = Hashtbl.find_opt sample.values name in
        let fmt_count sample name =
          match fv sample name with
          | Some v -> Printf.sprintf "%.0f" v
          | None -> "-"
        in
        let fmt_q sample name q =
          match sample_quantile sample name q with
          | Some le when le = infinity -> "    >max"
          | Some le -> Printf.sprintf "%8.3f" (le *. 1000.)
          | None -> "       -"
        in
        let render ~prev ~dt sample =
          let served = fv sample "obda_server_requests_served" in
          let rate =
            match (served, prev, dt) with
            | Some now, Some prev_sample, Some dt when dt > 0. -> (
              match fv prev_sample "obda_server_requests_served" with
              | Some before when now >= before ->
                Printf.sprintf "%.1f req/s" ((now -. before) /. dt)
              | _ -> "-")
            | Some now, None, _ -> (
              (* first sample: average over the server's whole uptime *)
              match fv sample "obda_server_uptime_s" with
              | Some up when up > 0. ->
                Printf.sprintf "%.1f req/s avg" (now /. up)
              | _ -> "-")
            | _ -> "-"
          in
          let hit_rate =
            match
              (fv sample "obda_cache_hits", fv sample "obda_cache_misses")
            with
            | Some h, Some m when h +. m > 0. ->
              Printf.sprintf "%.1f%%" (100. *. h /. (h +. m))
            | _ -> "-"
          in
          let revisions =
            match
              ( fv sample "obda_server_snapshot_revisions_lo",
                fv sample "obda_server_snapshot_revisions_hi" )
            with
            | Some lo, Some hi -> Printf.sprintf "%.0f-%.0f" lo hi
            | _ -> "-"
          in
          Printf.printf "obda top — %s    uptime %ss\n"
            (Service.Server.address_string address)
            (match fv sample "obda_server_uptime_s" with
            | Some v -> Printf.sprintf "%.1f" v
            | None -> "-");
          Printf.printf
            "requests     served %-8s in-flight %-6s shed %-6s %s\n"
            (fmt_count sample "obda_server_requests_served")
            (fmt_count sample "obda_server_requests_inflight")
            (fmt_count sample "obda_server_requests_shed")
            rate;
          Printf.printf
            "connections  accepted %-6s active %-9s shed %s\n"
            (fmt_count sample "obda_server_connections_accepted")
            (fmt_count sample "obda_server_connections_active")
            (fmt_count sample "obda_server_connections_shed");
          Printf.printf
            "cache        hits %-10s misses %-9s hit-rate %s\n"
            (fmt_count sample "obda_cache_hits")
            (fmt_count sample "obda_cache_misses")
            hit_rate;
          Printf.printf
            "data         atoms %-9s revision %-7s snapshots %s\n"
            (fmt_count sample "obda_data_atoms")
            (fmt_count sample "obda_data_revision")
            revisions;
          Printf.printf "latency (ms)        p50      p95      p99\n";
          (* the whole-server row comes from the STATS quantile gauges
             (the merged per-connection histogram is not in the registry);
             per-verb rows from the registry histogram buckets *)
          let gauge_ms name =
            match fv sample name with
            | Some v -> Printf.sprintf "%8.3f" v
            | None -> "       -"
          in
          Printf.printf "  %-12s %s %s %s\n" "server"
            (gauge_ms "obda_server_p50_ms")
            (gauge_ms "obda_server_p95_ms")
            (gauge_ms "obda_server_p99_ms");
          List.iter
            (fun (label, hist) ->
              Printf.printf "  %-12s %s %s %s\n" label
                (fmt_q sample hist 0.50) (fmt_q sample hist 0.95)
                (fmt_q sample hist 0.99))
            [
              ("ANSWER", "obda_serve_answer_latency");
              ("BATCH", "obda_serve_batch_latency");
              ("ASSERT/RETR", "obda_serve_mutate_latency");
            ];
          flush stdout
        in
        let rec loop n prev t_prev =
          let sample = poll () in
          let now = Unix.gettimeofday () in
          let dt = Option.map (fun t -> now -. t) t_prev in
          (* clear between refreshes, never before the only render *)
          if prev <> None then print_string "\027[2J\027[H";
          render ~prev ~dt sample;
          if count = 0 || n < count then begin
            Unix.sleepf interval;
            loop (n + 1) (Some sample) (Some now)
          end
        in
        loop 1 None None)
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh period between METRICS polls (default 2).")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Render $(docv) samples and exit; 0 (the default) refreshes \
             until interrupted.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard for a running obda serve socket: polls the METRICS \
          verb and renders request/connection/shed counts, request rate, \
          cache hit-rate, snapshot revision span and per-verb latency \
          quantiles (from the server's merged histograms).  Requires \
          --socket or --tcp.")
    Term.(const run $ socket_arg $ tcp_arg $ interval $ count)

let recover_cmd =
  let module Service = Obda_service in
  let run dir repair inject telemetry =
    handle_errors (fun () ->
        init_telemetry telemetry;
        arm_faults inject;
        let r = Service.Wal.recover ~repair dir in
        List.iter
          (fun warning -> Printf.eprintf "obda: wal: %s\n%!" warning)
          r.Service.Wal.warnings;
        Printf.printf "data dir:    %s\n" dir;
        Printf.printf "checkpoint:  %s\n"
          (match r.Service.Wal.checkpoint_seq with
          | Some seq -> Printf.sprintf "seq %d" seq
          | None -> "none");
        Printf.printf "replayed:    %d record%s\n" r.Service.Wal.replayed
          (if r.Service.Wal.replayed = 1 then "" else "s");
        if r.Service.Wal.skipped > 0 then
          Printf.printf "skipped:     %d record%s at or below the checkpoint\n"
            r.Service.Wal.skipped
            (if r.Service.Wal.skipped = 1 then "" else "s");
        (match r.Service.Wal.torn_bytes with
        | 0 -> ()
        | n when repair ->
          Printf.printf "torn tail:   %d byte%s truncated\n" n
            (if n = 1 then "" else "s")
        | n ->
          Printf.printf
            "torn tail:   %d byte%s (crash mid-append; --repair truncates, \
             obda serve repairs on start)\n"
            n
            (if n = 1 then "" else "s"));
        Printf.printf "last seq:    %d\n" r.Service.Wal.last_seq;
        Printf.printf "state:       %d atoms, revision %d, ontology %s, %d \
                       prepared quer%s\n"
          (Obda_data.Abox.num_atoms r.Service.Wal.abox)
          (Obda_data.Abox.revision r.Service.Wal.abox)
          (match r.Service.Wal.tbox with Some _ -> "yes" | None -> "no")
          (List.length r.Service.Wal.prepared)
          (if List.length r.Service.Wal.prepared = 1 then "y" else "ies"))
  in
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"The --data-dir of an obda serve session.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Physically truncate a torn final record from the log (what \
             obda serve does on start); without it the tear is only \
             reported.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Inspect a durable session directory without starting a server: \
          validate the checkpoints and write-ahead log, report what a \
          restart would restore (checkpoint sequence, replayed records, \
          torn-tail bytes) and exit non-zero on interior corruption.  A \
          dry run by default; --repair truncates a torn final record.")
    Term.(const run $ dir $ repair $ inject_term $ telemetry_term)

let chaos_list_cmd =
  let run () =
    Printf.printf "# %-26s %-8s %-15s %s\n" "site" "layer" "class" "exit";
    List.iter
      (fun s ->
        Printf.printf "%-28s %-8s %-15s %d\n" (Fault.site_name s)
          (Fault.site_layer s)
          (Fault.cls_name (Fault.site_default s))
          (Fault.cls_exit_code (Fault.site_default s)))
      (Fault.sites ())
  in
  Cmd.v
    (Cmd.info "chaos-list"
       ~doc:
         "List the registered fault-injection sites: plan name, pipeline \
          layer, default error class and the exit code an injected fault of \
          that class produces.")
    Term.(const run $ const ())

(* Terminate through [exit] so the [at_exit] teardown still flushes the
   telemetry sinks; 130/143/141 are the conventional 128+signal codes.
   (SIGPIPE usually surfaces as [Sys_error] first — see [is_broken_pipe] —
   but an explicit handler covers writes the runtime retries.) *)
let install_signal_handlers () =
  List.iter
    (fun (signal, code) ->
      try Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit code))
      with Invalid_argument _ | Sys_error _ -> ())
    [ (Sys.sigint, 130); (Sys.sigterm, 143); (Sys.sigpipe, 141) ]

let main =
  Cmd.group
    (Cmd.info "obda" ~version:"1.0.0"
       ~doc:
         "Optimal NDL-rewritings for OWL 2 QL ontology-mediated queries \
          (Bienvenu et al., PODS 2017).")
    [
      classify_cmd;
      rewrite_cmd;
      answer_cmd;
      stats_cmd;
      gen_data_cmd;
      chase_cmd;
      serve_cmd;
      client_cmd;
      top_cmd;
      recover_cmd;
      chaos_list_cmd;
    ]

let () =
  install_signal_handlers ();
  exit (Cmd.eval main)
