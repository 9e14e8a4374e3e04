(* The repository benchmark: one workload, one seed, a fixed amount of work
   sized from --seconds; every answer checked; the result printed as the
   last line of standard output.  See README.md in this directory. *)

let () =
  match Common.parse_args Sys.argv with
  | exception Failure msg ->
    prerr_endline ("bench: " ^ msg);
    exit 2
  | args -> (
    if not (Sys.file_exists args.work) then Sys.mkdir args.work 0o755;
    (* a terminated run still stops its server child (the workloads clean
       up in [Fun.protect] finalisers) *)
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> failwith "terminated by a signal")))
      [ Sys.sigterm; Sys.sigint ];
    try
      match args.workload with
      | "tables" -> Tables.run args ~par:false
      | "tables-par" -> Tables.run args ~par:true
      | "serve-read" -> Serve_wl.run args ~write:false
      | "serve-write" -> Serve_wl.run args ~write:true
      | w ->
        prerr_endline ("bench: unknown workload " ^ w);
        exit 2
    with e ->
      Printf.eprintf "bench: %s\n%!"
        (match e with
        | Obda_runtime.Error.Obda_error err -> Obda_runtime.Error.to_string err
        | e -> Printexc.to_string e);
      exit 1)
