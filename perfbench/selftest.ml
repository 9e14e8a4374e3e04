(* The answer checkers must report a wrong answer as a failed op: corrupt
   one expected answer (or one response) and require the failure. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("selftest: " ^ s); exit 1) fmt

let () =
  (* tables: a corrupted reference digest fails the op, the true one passes *)
  let open Tables in
  let abox = snd (dataset_abox ~seed:7 (List.hd Obda_data.Generate.table2_params)) in
  let op = List.find (fun op -> op.key.dataset = 0) pass_ops in
  let answers = Omq.answer ~algorithm:op.alg op.omq abox in
  let ctx = { aboxes = [| abox |]; pool = None; produced = []; failures = 0; attempted = 0 } in
  record ctx op answers;
  let expected d =
    let tbl = Hashtbl.create 1 in
    Hashtbl.replace tbl (op.inst, op.key) d;
    tbl
  in
  if failed ctx (reference ctx) <> 0 || failed ctx (expected (digest answers)) <> 0 then
    fail "a correct tables answer was reported as failed";
  let n, a, b = digest answers in
  List.iter
    (fun corrupted ->
      if failed ctx (expected corrupted) <> 1 then
        fail "a corrupted tables reference was not reported as a failed op")
    [ (n + 1, a, b); (n, a + 1, b); (n, a, b lxor 1) ];
  (* serve: corrupted responses fail, correct ones pass *)
  let open Serve_wl in
  let plan = make_plan ~seed:3 ~seconds:1 ~write:false in
  let ck = checker plan 0 [] in
  let qa = Printf.sprintf "OK answers=%d" base_facts :: Array.to_list plan.base in
  let qsq =
    Printf.sprintf "OK answers=%d" (base_facts * base_facts)
    :: List.concat_map (fun x -> List.map (fun y -> x ^ "," ^ y) (Array.to_list plan.base)) (Array.to_list plan.base)
  in
  if not (check ck (Answer "qa") qa && check ck (Answer "qsq") qsq) then
    fail "a correct serve answer was reported as failed";
  let drop_last l = List.rev (List.tl (List.rev l)) in
  List.iter
    (fun (op, resp) -> if check ck op resp then fail "a corrupted serve response passed")
    [
      (Answer "qa", drop_last qa);
      (Answer "qa", "OK answers=9" :: List.tl (drop_last qa));
      (Answer "qsq", "OK answers=99" :: List.tl (drop_last qsq));
      (Answer "qa", [ "ERR class=internal" ]);
      (Batch [ "qa"; "qsq" ], []);
    ];
  print_endline "selftest: ok"
