(* The serve-read and serve-write workloads: two closed-loop clients on
   persistent Unix-socket connections drive the shipped `obda serve
   --socket` through [Obda_service.Client].  Every client blocks on its
   reply, as every client the repository ships does, so the loop is closed:
   2 clients, at most 2 requests in flight, 2 connection workers. *)

open Obda_syntax
open Obda_ontology
open Obda_data
open Common
module Omq = Obda_rewriting.Omq
module Eval = Obda_ndl.Eval
module Ndl = Obda_ndl.Ndl
module Parse = Obda_parse.Parse
module Client = Obda_service.Client
module Server = Obda_service.Server
module Session = Obda_service.Session
module Serve = Obda_service.Serve
module Protocol = Obda_service.Protocol
module Prepared = Obda_service.Prepared
module Wal = Obda_service.Wal

let clients = 2
let base_facts = 10
let checkpoint_every = 500

(* Requests per second of both clients together, used only to size a run's
   fixed op count from --seconds; measured when the benchmark was written
   on a 2-core x86-64 host. *)
let sizing_rate ~write = if write then 400. else 16000.

(* the highest percentile reported (p99 of reads) needs 10 samples beyond it *)
let min_reads = 1010

type op = Answer of string | Batch of string list | Assert of int | Retract of int

let is_write = function Assert _ | Retract _ -> true | Answer _ | Batch _ -> false

(* Ops come in blocks with a fixed composition, each block shuffled by the
   seed; a serve-write block asserts two of the client's own facts and
   retracts them again, so every block starts from the same store and any
   run of whole blocks replays identically.  A serve-write read is one
   BATCH of all three queries, so every read costs the same kind of work
   and the read percentiles sit inside one mode of the latency
   distribution rather than on the edge between a cheap and a costly
   query. *)
let block_len ~write = if write then 6 else 10

let write_read = Batch [ "qsq"; "qa"; "qpath" ]

let block ~write rng ~pool_size =
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  if not write then
    shuffle
      [|
        Answer "qa"; Answer "qa"; Answer "qa"; Answer "qa";
        Answer "qsq"; Answer "qsq"; Answer "qsq"; Answer "qsq";
        Batch [ "qa"; "qsq" ]; Batch [ "qa"; "qsq" ];
      |]
  else begin
    let slots =
      shuffle
        [| Assert 0; Assert 0; Assert 0; Assert 0; write_read; write_read |]
    in
    let f1 = Random.State.int rng pool_size in
    let f2 = (f1 + 1 + Random.State.int rng (pool_size - 1)) mod pool_size in
    (* the four write slots, in order: A1 A2 R R or A1 R1 A2 R2 *)
    let writes =
      if Random.State.bool rng then
        if Random.State.bool rng then [ Assert f1; Assert f2; Retract f1; Retract f2 ]
        else [ Assert f1; Assert f2; Retract f2; Retract f1 ]
      else [ Assert f1; Retract f1; Assert f2; Retract f2 ]
    in
    let writes = ref writes in
    Array.map
      (fun op ->
        if is_write op then begin
          let w = List.hd !writes in
          writes := List.tl !writes;
          w
        end
        else op)
      slots
  end

let own_pool = 16

type plan = {
  write : bool;
  ops : op array array;  (** per client, one timed phase *)
  warm : int;  (** ops of each client's warm-up: a prefix of [ops] *)
  names : string array array;  (** per client, its own fact names *)
  base : string array;  (** the A facts of the instance *)
}

let make_plan ~seed ~seconds ~write =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let bl = block_len ~write in
  let per_client =
    let by_time = int_of_float (float_of_int seconds *. sizing_rate ~write /. float_of_int clients) in
    let reads_per_block = if write then 2 else 10 in
    let by_tail = (min_reads + (clients * reads_per_block) - 1) / (clients * reads_per_block) * bl in
    max by_tail by_time / bl * bl
  in
  let tag = Printf.sprintf "%x" (Random.State.bits rng land 0xffff) in
  let base = Array.init base_facts (fun i -> Printf.sprintf "b%s_%d" tag i) in
  let names =
    Array.init clients (fun c -> Array.init own_pool (fun k -> Printf.sprintf "w%s_%d_%d" tag c k))
  in
  let ops =
    Array.init clients (fun _ ->
        Array.concat (List.init (per_client / bl) (fun _ -> block ~write rng ~pool_size:own_pool)))
  in
  { write; ops; warm = max bl (per_client / 10 / bl * bl); names; base }

let line plan c = function
  | Answer q -> "ANSWER " ^ q
  | Batch names -> "BATCH " ^ String.concat " " names
  | Assert k -> Printf.sprintf "ASSERT A(%s)" plan.names.(c).(k)
  | Retract k -> Printf.sprintf "RETRACT A(%s)" plan.names.(c).(k)

(* ------------------------------------------------------------------ *)
(* Answer checks.  [present] tracks the client's own facts as of the
   request; [expected_path] is the qpath answer computed in-process. *)

let int_after prefix s =
  if String.starts_with ~prefix s then
    int_of_string_opt (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let is_square n =
  n >= 0
  &&
  let r = int_of_float (sqrt (float_of_int n) +. 0.5) in
  r * r = n

(* the first n elements of a list, and the rest *)
let rec split n l =
  match l with
  | x :: r when n > 0 ->
    let a, b = split (n - 1) r in
    (x :: a, b)
  | _ -> ([], l)

type checker = {
  cplan : plan;
  client : int;
  present : bool array;
  expected_path : string list;  (** sorted *)
}

let checker plan client expected_path =
  { cplan = plan; client; present = Array.make own_pool false; expected_path }

(* qa lists every base fact and this client's present facts, and none of its
   retracted ones; serve-read has no writers, so it is exactly the base *)
let check_qa ck tuples =
  let mem = Hashtbl.create 32 in
  List.iter (fun t -> Hashtbl.replace mem t ()) tuples;
  Array.for_all (Hashtbl.mem mem) ck.cplan.base
  && (ck.cplan.write || List.length tuples = base_facts)
  && Array.for_all Fun.id
       (Array.mapi
          (fun k p -> p = Hashtbl.mem mem ck.cplan.names.(ck.client).(k))
          ck.present)

let own_present ck = Array.fold_left (fun n p -> if p then n + 1 else n) 0 ck.present

let check_qsq ck n =
  if ck.cplan.write then
    is_square n && int_of_float (sqrt (float_of_int n) +. 0.5) >= base_facts + own_present ck
  else n = base_facts * base_facts

let check_answer ck q = function
  | first :: tuples -> (
    match int_after "OK answers=" first with
    | Some n when n = List.length tuples -> (
      match q with
      | "qa" -> check_qa ck tuples
      | "qsq" -> check_qsq ck n
      | "qpath" -> List.sort compare tuples = ck.expected_path
      | _ -> false)
    | _ -> false)
  | [] -> false

(* Check one response and advance the client's view of its own facts. *)
let check ck op resp =
  match (op, resp) with
  | Answer q, _ -> check_answer ck q resp
  | Batch names, first :: rest ->
    first = Printf.sprintf "OK batch=%d" (List.length names)
    &&
    let rec each names rest =
      match (names, rest) with
      | [], [] -> true
      | q :: names, header :: rest -> (
        match int_after (Printf.sprintf "OK name=%s answers=" q) header with
        | Some n ->
          let tuples, rest = split n rest in
          check_answer ck q (("OK answers=" ^ string_of_int n) :: tuples) && each names rest
        | None -> false)
      | _ -> false
    in
    each names rest
  | Assert k, [ first ] ->
    ck.present.(k) <- true;
    String.starts_with ~prefix:"OK asserted added=1 " first
  | Retract k, [ first ] ->
    ck.present.(k) <- false;
    String.starts_with ~prefix:"OK retracted removed=1 " first
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The server child *)

type server = { pid : int; sock : string }

let live : int list ref = ref []

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) s.pid) !live

let connect sock = Client.connect (Server.Unix_socket sock)

let request_ok cl line =
  match Client.request cl line with
  | first :: _ as r when String.starts_with ~prefix:"OK" first -> r
  | r -> failwith (Printf.sprintf "%s -> %s" line (String.concat " | " r))

let prepares ~write =
  [ "PREPARE qa q(x) <- A(x)"; "PREPARE qsq q(x,y) <- A(x), A(y)" ]
  @ if write then [ "PREPARE qpath q(x0,x3) <- R(x0,x1), R(x1,x2), S(x2,x3)" ] else []

(* Start `obda serve`, wait until it accepts, PREPARE the queries: the
   set-up a user pays before the first request. *)
let start_server args ~write ~onto ~data i =
  let sock = Filename.concat args.work (Printf.sprintf "s%d.sock" i) in
  let dir = Filename.concat args.work (Printf.sprintf "wal%d" i) in
  let log = Unix.openfile (Filename.concat args.work (Printf.sprintf "server%d.log" i))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    [ args.obda; "serve"; "--socket"; sock; "-o"; onto; "-d"; data; "--connections";
      string_of_int clients ]
    @ (if write then
         [ "--data-dir"; dir; "--durability"; "always"; "--checkpoint-every";
           string_of_int checkpoint_every ]
       else [])
  in
  let t0 = now () in
  let pid = Unix.create_process args.obda (Array.of_list argv) null log log in
  live := pid :: !live;
  Unix.close null;
  Unix.close log;
  let s = { pid; sock } in
  let rec ready () =
    match connect sock with
    | cl -> cl
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "obda serve exited during start-up (see its log)");
      if now () -. t0 > 60. then failwith "obda serve did not start";
      Unix.sleepf 0.0005;
      ready ()
  in
  let cl = ready () in
  List.iter (fun p -> ignore (request_ok cl p)) (prepares ~write);
  Client.close cl;
  (now () -. t0, s)

(* ------------------------------------------------------------------ *)
(* One phase: every client runs [from, until) of its op list on its own
   domain and connection, all released together. *)

type phase = {
  writes : float array array;  (** per client, write latencies (s) *)
  starts : float array array;  (** per client, per op start time *)
  lats : float array array;  (** per client, per op latency *)
  wall : float;
  pfailed : int;
  pattempted : int;
}

let run_phase plan conns checkers ~from ~until =
  let n = until - from in
  let go = Atomic.make false and ready = Atomic.make 0 in
  let body c () =
    let cl = conns.(c) and ck = checkers.(c) in
    let ops = plan.ops.(c) in
    let starts = Array.make n 0. and lats = Array.make n 0. in
    let failed = ref 0 in
    Atomic.incr ready;
    while not (Atomic.get go) do Domain.cpu_relax () done;
    for i = 0 to n - 1 do
      let op = ops.(from + i) in
      let l = line plan c op in
      let s = now () in
      let resp = try Client.request cl l with _ -> [] in
      let e = now () in
      starts.(i) <- s;
      lats.(i) <- e -. s;
      if not (check ck op resp) then incr failed
    done;
    (starts, lats, !failed, now ())
  in
  let domains = Array.init clients (fun c -> Domain.spawn (body c)) in
  while Atomic.get ready < clients do Domain.cpu_relax () done;
  let t0 = now () in
  Atomic.set go true;
  let results = Array.map Domain.join domains in
  let t1 = Array.fold_left (fun m (_, _, _, e) -> Float.max m e) t0 results in
  let writes c =
    let _, lats, _, _ = results.(c) in
    let acc = ref [] in
    Array.iteri (fun i l -> if is_write plan.ops.(c).(from + i) then acc := l :: !acc) lats;
    Array.of_list !acc
  in
  {
    writes = Array.init clients writes;
    starts = Array.map (fun (s, _, _, _) -> s) results;
    lats = Array.map (fun (_, l, _, _) -> l) results;
    wall = t1 -. t0;
    pfailed = Array.fold_left (fun n (_, _, f, _) -> n + f) 0 results;
    pattempted = clients * n;
  }

(* ten rounds: the i-th tenth of every client's ops *)
let e2e_of plan ph =
  let n = Array.length ph.lats.(0) in
  let r = 10 in
  e2e_of_rounds
    (List.init r (fun k ->
         let a = k * n / r and b = ((k + 1) * n / r) - 1 in
         let first = ref infinity and last = ref neg_infinity and reads = ref [] in
         for c = 0 to clients - 1 do
           first := Float.min !first ph.starts.(c).(a);
           last := Float.max !last (ph.starts.(c).(b) +. ph.lats.(c).(b));
           for i = a to b do
             if not (is_write plan.ops.(c).(i)) then reads := ph.lats.(c).(i) :: !reads
           done
         done;
         (clients * (b - a + 1), !last -. !first, Array.of_list !reads)))

(* ------------------------------------------------------------------ *)
(* The in-process replay of the traced run: the same request lines,
   interleaved client by client, first through [Serve.handle_line] on one
   session (exec), then opened up into the layer calls on a second,
   identically prepared session. *)

let session_of ~onto ~data ~wal_dir ~write =
  let session = Session.create () in
  Session.load_ontology session (Parse.ontology_of_file onto);
  Session.load_data session (Parse.data_of_file data);
  let wal =
    if write then begin
      let w, _ = Wal.open_ ~policy:Wal.Always ~checkpoint_every wal_dir in
      Serve.attach_wal session w;
      Some w
    end
    else None
  in
  List.iter (fun p -> ignore (Serve.handle_line session p)) (prepares ~write);
  (session, wal)

let close_session (session, wal) =
  Option.iter
    (fun w ->
      Serve.detach_wal session;
      Wal.close w)
    wal;
  Session.close session

let wal_row wal key =
  match List.assoc_opt key (Wal.stats_rows wal) with
  | Some v -> int_of_string v
  | None -> failwith ("no WAL row " ^ key)

let run (args : args) ~write =
  provenance args ~scale:(if write then string_of_float Tables.scale else "10 A facts");
  let plan = make_plan ~seed:args.seed ~seconds:args.seconds ~write in
  let per_client = Array.length plan.ops.(0) in
  (* serve-write serves 2.ttl; its marker concepts A_∃P and A_∃P⁻ have no
     name in the text format, so they are renamed EP and EPi and the
     ontology gains EP ⊑ ∃P and EPi ⊑ ∃P⁻, which entail exactly them *)
  let abox = Abox.create () in
  let tbox =
    if not write then Tables.tbox
    else begin
      let marker r = Tbox.exists_name Tables.tbox (Role.of_string r) in
      let rename c =
        if c = marker "P" then Symbol.intern "EP"
        else if c = marker "P-" then Symbol.intern "EPi"
        else c
      in
      List.iter
        (function
          | Abox.Concept_assertion (c, x) -> Abox.add_unary abox (rename c) x
          | fact -> Abox.add_fact abox fact)
        (Abox.to_facts
           (snd (Tables.dataset_abox ~seed:args.seed (List.nth Generate.table2_params 1))));
      Parse.ontology_of_string
        (Parse.ontology_to_string Tables.tbox ^ "\nEP(x) -> P(x,_)\nEPi(x) -> P(_,x)\n")
    end
  in
  Array.iter (fun b -> Abox.add_unary abox (Symbol.intern "A") (Symbol.intern b)) plan.base;
  let onto = Filename.concat args.work "example11.onto" in
  let data = Filename.concat args.work "data.data" in
  let write_file path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write_file onto (Parse.ontology_to_string tbox);
  write_file data (Parse.data_to_string abox);
  let expected_path =
    if not write then []
    else
      let cq = Parse.query_of_string "q(x0,x3) <- R(x0,x1), R(x1,x2), S(x2,x3)" in
      let loaded = Parse.data_of_file data in
      List.sort compare
        (List.map
           (fun t -> String.concat "," (List.map Symbol.name t))
           (Eval.answers ~observe:false ~naive:true
              (Omq.rewrite ~over:`Arbitrary Omq.Log (Omq.make (Parse.ontology_of_file onto) cq))
              loaded))
  in
  info "data" (Printf.sprintf "atoms=%d" (Abox.num_atoms abox));
  info "clients" (string_of_int clients);
  info "durability" (if write then "always" else "none (no --data-dir)");
  info "checkpoint_every" (if write then string_of_int checkpoint_every else "-");
  let count pred =
    Array.fold_left (fun n ops -> Array.fold_left (fun n op -> if pred op then n + 1 else n) n ops) 0 plan.ops
  in
  info "ops"
    (Printf.sprintf "per_client=%d both clients: answer=%d batch=%d assert=%d retract=%d"
       per_client
       (count (function Answer _ -> true | _ -> false))
       (count (function Batch _ -> true | _ -> false))
       (count (function Assert _ -> true | _ -> false))
       (count (function Retract _ -> true | _ -> false)));
  info "warmup_ops_per_client" (string_of_int plan.warm);
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun pid -> stop_server { pid; sock = "" }) !live)
    (fun () ->
      let reps = 3 in
      let setups = List.init reps (fun i -> start_server args ~write ~onto ~data i) in
      List.iteri (fun i (_, s) -> if i < reps - 1 then stop_server s) setups;
      let setup_s = median (List.map fst setups) in
      let server = snd (List.nth setups (reps - 1)) in
      let conns = Array.init clients (fun _ -> connect server.sock) in
      let checkers = Array.init clients (fun c -> checker plan c expected_path) in
      let failed = ref 0 and attempted = ref 0 in
      let account ph =
        failed := !failed + ph.pfailed;
        attempted := !attempted + ph.pattempted;
        ph
      in
      let warm = account (run_phase plan conns checkers ~from:0 ~until:plan.warm) in
      let u = account (run_phase plan conns checkers ~from:0 ~until:per_client) in
      let e = e2e_of plan u in
      let rss = peak_rss_mb (Some server.pid) in
      let writes =
        let w = sorted_ms (Array.concat (Array.to_list u.writes)) in
        if Array.length w = 0 then None else Some (percentile w 0.50, tail w 0.99)
      in
      info "latency_p99_ms" (Printf.sprintf "%.4f" e.p99);
      Option.iter
        (fun (w50, w99) ->
          info "write_latency_p50_ms" (Printf.sprintf "%.4f" w50);
          info "write_latency_p99_ms" (Printf.sprintf "%.4f" w99))
        writes;
      let e2e =
        [
          metric "setup_s" "s" setup_s;
          metric "throughput_per_s" "ops/s" e.thr;
          metric "latency_p50_ms" "ms" e.p50;
          metric "latency_p90_ms" "ms" e.p90;
          metric "peak_rss_mb" "MiB" rss;
        ]
      in
      let finish metrics =
        Array.iter Client.close conns;
        stop_server server;
        print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics
      in
      if not args.trace then finish e2e
      else begin
        (* traced client phase: the same ops, each request kept as a span *)
        let t = account (run_phase plan conns checkers ~from:0 ~until:per_client) in
        let te = e2e_of plan t in
        let trss = peak_rss_mb (Some server.pid) in
        let stats = Client.request conns.(0) "STATS" in
        let stat key =
          match
            List.find_map
              (fun l ->
                match String.index_opt l ' ' with
                | Some i when String.sub l 0 i = key ->
                  float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
                | _ -> None)
              stats
          with
          | Some v -> v
          | None -> failwith ("no STATS row " ^ key)
        in
        (* the client view of every request the server has timed so far
           (warm-up, untraced and traced phases; reads and writes) *)
        let all_client =
          sorted_ms (Array.concat (List.concat_map (fun ph -> Array.to_list ph.lats) [ warm; u; t ]))
        in
        let server_p99 = stat "server.p99-ms" in
        let server_stats = (stat "server.p50-ms", server_p99, percentile all_client 0.99 -. server_p99) in
        for c = 0 to clients - 1 do
          let root = Spans.add ~name:"client" ~parent:(-1) ~op:(-1) t.starts.(c).(0) (t.starts.(c).(0) +. t.wall) in
          Array.iteri
            (fun i s -> ignore (Spans.add ~name:"client.request" ~parent:root ~op:((c * per_client) + i) s (s +. t.lats.(c).(i))))
            t.starts.(c)
        done;
        (* in-process replay over a bounded prefix of each client's ops *)
        let replay = min per_client (if write then 4000 else 20000) / block_len ~write * block_len ~write in
        let lines =
          Array.init (replay * clients) (fun j ->
              let c = j mod clients and i = j / clients in
              (c, i, plan.ops.(c).(i), line plan c plan.ops.(c).(i)))
        in
        let nops = float_of_int (Array.length lines) in
        let per_op s = s *. 1000. /. nops in
        (* exec: Serve.handle_line, the server's per-request entry point *)
        let sa = session_of ~onto ~data ~wal_dir:(Filename.concat args.work "walA") ~write in
        let cks = Array.init clients (fun c -> checker plan c expected_path) in
        let parse_s = ref 0. and exec_s = ref 0. in
        let w0, maj0 = gc_counters () in
        Array.iteri
          (fun j (c, _, op, l) ->
            let _, d, _ = Spans.time ~name:"parse" ~parent:(-1) ~op:j (fun () -> Protocol.parse l) in
            parse_s := !parse_s +. d;
            let (resp, _), d, _ =
              Spans.time ~name:"serve.handle_line" ~parent:(-1) ~op:j (fun () -> Serve.handle_line (fst sa) l)
            in
            exec_s := !exec_s +. d;
            incr attempted;
            if not (check cks.(c) op resp) then incr failed)
          lines;
        let w1, maj1 = gc_counters () in
        let wal_stats =
          Option.map
            (fun w ->
              let muts = float_of_int (max 1 (wal_row w "server.wal.appended")) in
              ( float_of_int (wal_row w "server.wal.bytes") /. muts,
                float_of_int (wal_row w "server.wal.syncs") /. muts,
                wal_row w "server.wal.checkpoints" ))
            (snd sa)
        in
        close_session sa;
        (* the layer calls behind handle_line, on a second session *)
        let sb = session_of ~onto ~data ~wal_dir:(Filename.concat args.work "walB") ~write in
        let session = fst sb in
        let snap_s = ref 0. and cons_s = ref 0. and eval_s = ref 0. and mut_s = ref 0. in
        let hits = ref 0 and checks = ref 0 in
        let reads = ref 0 and generated = ref 0 and words = ref 0. in
        let eval_one j snap name =
          let p = Option.get (Session.find_prepared session name) in
          let ew0 = (Gc.quick_stat ()).Gc.minor_words in
          let r, d, _ =
            Spans.time ~name:"eval" ~parent:(-1) ~op:j (fun () ->
                Eval.run ~plan:(Prepared.plan p) (Prepared.rewriting p) (Session.snapshot_abox snap))
          in
          words := !words +. ((Gc.quick_stat ()).Gc.minor_words -. ew0);
          eval_s := !eval_s +. d;
          reads := !reads + r.Eval.tuples_read;
          generated := !generated + r.Eval.generated_tuples
        in
        let read j names =
          let snap, d, _ = Spans.time ~name:"snapshot" ~parent:(-1) ~op:j (fun () -> Session.freeze session) in
          snap_s := !snap_s +. d;
          incr checks;
          if Session.consistency_cached session <> None then incr hits;
          let _, d, _ =
            Spans.time ~name:"consistency" ~parent:(-1) ~op:j (fun () -> Session.consistent_at session snap)
          in
          cons_s := !cons_s +. d;
          List.iter (eval_one j snap) names
        in
        let mutate j f text =
          let _, d, _ =
            Spans.time ~name:"mutate" ~parent:(-1) ~op:j (fun () ->
                ignore (f session (Abox.to_facts (Parse.data_of_string text)));
                match snd sb with
                | Some w when Wal.due_checkpoint w -> ignore (Serve.checkpoint_now session w)
                | _ -> ())
          in
          mut_s := !mut_s +. d
        in
        Array.iteri
          (fun j (_, _, _, l) ->
            match Protocol.parse l with
            | Ok (Some (Protocol.Answer name)) -> read j [ name ]
            | Ok (Some (Protocol.Batch names)) -> read j names
            | Ok (Some (Protocol.Assert_facts text)) -> mutate j Session.assert_facts text
            | Ok (Some (Protocol.Retract_facts text)) -> mutate j Session.retract_facts text
            | _ -> incr failed)
          lines;
        (* rewrite: once per PREPAREd query on the serving path *)
        let prepared = Session.prepared_names session in
        let rw_s = ref 0. and clauses = ref 0 in
        List.iter
          (fun name ->
            let p = Option.get (Session.find_prepared session name) in
            let q, d, _ =
              Spans.time ~name:"rewrite" ~parent:(-1) ~op:(-1) (fun () ->
                  Omq.rewrite ~over:`Arbitrary (Prepared.algorithm p) (Prepared.omq p))
            in
            rw_s := !rw_s +. d;
            clauses := !clauses + Ndl.num_clauses q)
          prepared;
        close_session sb;
        Spans.write (Filename.concat args.work ("spans-" ^ args.workload ^ ".tsv"));
        let exec_ms = per_op !exec_s in
        let children = per_op (!parse_s +. !snap_s +. !cons_s +. !eval_s +. !mut_s) in
        (* the client-observed latency of the same replayed ops *)
        let client_ms =
          let sum = ref 0. in
          Array.iter (fun (c, i, _, _) -> sum := !sum +. t.lats.(c).(i)) lines;
          per_op !sum
        in
        finish
          (layer_metrics
             (Layers.all
                ~eval:(per_op !eval_s, !reads, !generated, !words /. float_of_int (max 1 !generated))
                ~rewrite:(!rw_s *. 1000. /. float_of_int (List.length prepared), !clauses)
                ~consistency:(per_op !cons_s, float_of_int !hits /. float_of_int (max 1 !checks))
                ~snapshot:(per_op !snap_s)
                ?mutate:(if write then Some (per_op !mut_s) else None)
                ?wal:wal_stats
                ~serve:(per_op !parse_s, exec_ms, exec_ms -. children)
                ~transport:(client_ms -. exec_ms)
                ~server:server_stats
                ~gc:((w1 -. w0) /. nops, maj1 - maj0)
                ~tail:(e.p99, writes)
                ~overhead:(overhead e te ~rss ~trss)
                ()))
      end)
