(* A small reusable pool of worker domains.

   Spawning a domain costs tens of microseconds, far too much to pay per
   evaluation stratum, so the pool keeps [jobs - 1] domains parked on a
   condition variable and reuses them across [run] calls.  The caller
   participates as worker 0, which keeps [jobs = 1] exactly the sequential
   engine: no domains are spawned and [run t f] is just [f 0]. *)

type cell =
  | Idle
  | Task of (unit -> unit)
  | Done of exn option
  | Stop

type worker = {
  m : Mutex.t;
  cv : Condition.t;
  mutable cell : cell;
}

type t = {
  jobs : int;
  workers : worker array;  (* length jobs - 1; worker i runs index i + 1 *)
  handles : unit Domain.t array;
  mutable closed : bool;
}

let worker_loop w =
  let rec loop () =
    Mutex.lock w.m;
    let rec wait () =
      match w.cell with
      | Task _ | Stop -> ()
      | Idle | Done _ ->
        Condition.wait w.cv w.m;
        wait ()
    in
    wait ();
    match w.cell with
    | Stop -> Mutex.unlock w.m
    | Task f ->
      Mutex.unlock w.m;
      let outcome = match f () with () -> None | exception e -> Some e in
      Mutex.lock w.m;
      w.cell <- Done outcome;
      Condition.broadcast w.cv;
      Mutex.unlock w.m;
      loop ()
    | Idle | Done _ -> assert false
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs < 1";
  let workers =
    Array.init (jobs - 1) (fun _ ->
        { m = Mutex.create (); cv = Condition.create (); cell = Idle })
  in
  let handles =
    Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers
  in
  { jobs; workers; handles; closed = false }

let jobs t = t.jobs

let submit w f =
  Mutex.lock w.m;
  (match w.cell with
  | Idle -> w.cell <- Task f
  | Task _ | Done _ | Stop -> assert false);
  Condition.broadcast w.cv;
  Mutex.unlock w.m

let await w =
  Mutex.lock w.m;
  let rec wait () =
    match w.cell with
    | Done outcome ->
      w.cell <- Idle;
      outcome
    | Idle | Task _ ->
      Condition.wait w.cv w.m;
      wait ()
    | Stop -> assert false
  in
  let outcome = wait () in
  Mutex.unlock w.m;
  outcome

let run t f =
  if t.closed then invalid_arg "Pool.run: pool is shut down";
  if t.jobs = 1 then f 0
  else begin
    Array.iteri (fun i w -> submit w (fun () -> f (i + 1))) t.workers;
    let own = match f 0 with () -> None | exception e -> Some e in
    (* always drain every worker, even if some failed, so the pool is
       reusable; report the first failure by worker index (caller first) *)
    let outcomes = Array.map await t.workers in
    match own with
    | Some e -> raise e
    | None -> (
      match Array.fold_left (fun acc o -> match acc with Some _ -> acc | None -> o) None outcomes with
      | Some e -> raise e
      | None -> ())
  end

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun w ->
        Mutex.lock w.m;
        w.cell <- Stop;
        Condition.broadcast w.cv;
        Mutex.unlock w.m)
      t.workers;
    Array.iter Domain.join t.handles
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
