(* Shared pieces of the benchmark: command line, statistics, the result
   line, provenance, peak RSS and the in-memory span recorder. *)

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  obda : string;  (** path of the obda executable, for the serve workloads *)
  work : string;  (** scratch directory inside the checkout *)
  git_rev : string;
  src_digest : string;
}

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --obda PATH \
   --work DIR [--git-rev REV] [--src-digest D]"

let parse_args argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
      go rest
    | [] -> ()
    | _ -> failwith usage
  in
  go (List.tl (Array.to_list argv));
  let get ?default k =
    match (Hashtbl.find_opt tbl k, default) with
    | Some v, _ | None, Some v -> v
    | None, None -> failwith ("missing --" ^ k ^ "\n" ^ usage)
  in
  let int k =
    match int_of_string_opt (get k) with
    | Some n -> n
    | None -> failwith ("--" ^ k ^ " needs an integer")
  in
  {
    workload = get "workload";
    seed = int "seed";
    seconds = max 1 (int "seconds");
    trace =
      (match get "trace" with
      | "0" -> false
      | "1" -> true
      | _ -> failwith "--trace needs 0 or 1");
    obda = get ~default:"" "obda";
    work = get "work";
    git_rev = get ~default:"unknown" "git-rev";
    src_digest = get ~default:"unknown" "src-digest";
  }

let now = Unix.gettimeofday

let info key value = Printf.printf "# %s: %s\n%!" key value

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Order statistic at rank max 1 (ceil (q * n)), 1-based: the convention of
   the server's own histogram quantiles, so client and server percentiles
   name the same sample. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    sorted.(min n rank - 1)

(* A tail percentile is only reported when at least ten samples lie beyond
   it; fewer would make it the maximum of a handful of ops. *)
let tail sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  if n - rank < 10 then
    failwith
      (Printf.sprintf "p%g needs 10 samples beyond it; only %d samples" (q *. 100.) n);
  percentile sorted q

let sorted_ms samples =
  let a = Array.map (fun s -> s *. 1000.) samples in
  Array.sort Float.compare a;
  a

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* End-to-end timing of a phase cut into rounds, each round given as (ops,
   wall seconds, latency samples in seconds).  Throughput, p50 and p90 are
   taken per round and the median over the rounds is reported, so a burst
   of interference from other tenants of the host moves a minority of
   rounds, not the reported value.  p99 is taken over the whole phase. *)
type e2e = { thr : float; p50 : float; p90 : float; p99 : float }

let e2e_of_rounds rounds =
  let per =
    List.map
      (fun (ops, wall, lat) ->
        let ms = sorted_ms lat in
        (float_of_int ops /. wall, percentile ms 0.50, tail ms 0.90))
      rounds
  in
  info "rounds (ops/s p50 p90)"
    (String.concat " "
       (List.map (fun (t, p, q) -> Printf.sprintf "%.4g/%.4g/%.4g" t p q) per));
  {
    thr = median (List.map (fun (t, _, _) -> t) per);
    p50 = median (List.map (fun (_, p, _) -> p) per);
    p90 = median (List.map (fun (_, _, p) -> p) per);
    p99 = tail (sorted_ms (Array.concat (List.map (fun (_, _, l) -> l) rounds))) 0.99;
  }

(* ------------------------------------------------------------------ *)
(* Output: "# key: value" provenance lines, then the result line last *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

module Json = Obda_obs.Json

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        failwith (Printf.sprintf "metric %s is not finite" m.name))
    metrics;
  let metrics =
    Json.Assoc
      (List.map
         (fun m ->
           ( m.name,
             Json.Assoc [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ] ))
         metrics)
  in
  print_endline
    (Json.to_string
       (Json.Assoc
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics);
          ]));
  flush stdout

let provenance args ~scale =
  info "workload" args.workload;
  info "seed" (string_of_int args.seed);
  info "seconds" (string_of_int args.seconds);
  info "trace" (if args.trace then "1" else "0");
  info "git_rev" args.git_rev;
  info "src_digest" args.src_digest;
  info "nproc" (string_of_int (Domain.recommended_domain_count ()));
  info "ocaml_version" Sys.ocaml_version;
  info "scale" scale

(* ------------------------------------------------------------------ *)
(* Peak resident set size, from /proc (Linux) *)

let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      find ())

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory during the run, written once at the end *)

module Spans = struct
  type span = { name : string; start : float; stop : float; parent : int; op : int }

  let buf : span array ref = ref [||]
  let len = ref 0

  (* returns the span's id, usable as a later span's [parent] (-1: none) *)
  let add ~name ~parent ~op start stop =
    if !len = Array.length !buf then begin
      let grown =
        Array.make (max 1024 (2 * !len)) { name; start; stop; parent; op }
      in
      Array.blit !buf 0 grown 0 !len;
      buf := grown
    end;
    !buf.(!len) <- { name; start; stop; parent; op };
    incr len;
    !len - 1

  (* time [f ()] as a span *)
  let time ~name ~parent ~op f =
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    (r, t1 -. t0, add ~name ~parent ~op t0 t1)

  let write path =
    let oc = open_out path in
    output_string oc "id\tname\tstart_us\tend_us\tparent\top\n";
    let base = if !len = 0 then 0. else !buf.(0).start in
    for i = 0 to !len - 1 do
      let s = !buf.(i) in
      Printf.fprintf oc "%d\t%s\t%.1f\t%.1f\t%d\t%d\n" i s.name
        ((s.start -. base) *. 1e6)
        ((s.stop -. base) *. 1e6)
        s.parent s.op
    done;
    close_out oc
end

(* Minor words allocated and major collections so far in this process *)
let gc_counters () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* traced minus untraced, for each end-to-end metric the traced run re-measures *)
let overhead u t ~rss ~trss =
  [
    ("throughput_per_s", "ops/s", t.thr -. u.thr);
    ("latency_p50_ms", "ms", t.p50 -. u.p50);
    ("latency_p90_ms", "ms", t.p90 -. u.p90);
    ("peak_rss_mb", "MiB", trss -. rss);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics carry the layer they time and the end-to-end metrics
   they should move; the tags are printed as provenance lines beside the
   result, since the result line holds only value and unit. *)

type layer_metric = {
  lname : string;
  lunit : string;
  layer : string;
  moves : string;
  lvalue : float option;  (** [None]: the layer is not on this workload's path *)
}

let layer lname lunit ~layer ~moves lvalue = { lname; lunit; layer; moves; lvalue }

(* Every per-layer metric is printed for every workload; one whose layer this
   workload never calls reads 0 and is tagged "not on this path". *)
let layer_metrics ls =
  List.map
    (fun l ->
      info ("layer " ^ l.lname)
        (Printf.sprintf "layer=%s moves=%s%s" l.layer l.moves
           (if l.lvalue = None then " (not on this path: 0)" else ""));
      metric l.lname l.lunit (Option.value l.lvalue ~default:0.))
    ls
