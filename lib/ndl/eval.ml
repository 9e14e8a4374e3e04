open Obda_syntax
open Obda_data
module Budget = Obda_runtime.Budget
module Fault = Obda_runtime.Fault
module Pool = Obda_runtime.Pool
module Obs = Obda_obs.Obs

(* ------------------------------------------------------------------ *)
(* Relations *)

module Key = struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = Hashtbl.hash
end

module KeyTbl = Hashtbl.Make (Key)

type relation = {
  arity : int;
  tuples : (int array, unit) Hashtbl.t;
  mutable indexes : (int list * int array list KeyTbl.t) list;
      (* sorted position list -> key values -> matching tuples *)
  mutable index_builds : int;
      (* full-scan index constructions — additions maintain existing
         indexes incrementally, so this stays at one per position list *)
  mutable sorted_view : Symbol.t list list option;
      (* memoised [relation_tuples] result, invalidated on mutation *)
}

let relation_create arity =
  {
    arity;
    tuples = Hashtbl.create 64;
    indexes = [];
    index_builds = 0;
    sorted_view = None;
  }

let relation_arity r = r.arity
let relation_size r = Hashtbl.length r.tuples

let relation_tuples r =
  match r.sorted_view with
  | Some view -> view
  | None ->
    let view =
      Hashtbl.fold (fun t () acc -> Array.to_list t :: acc) r.tuples []
      |> List.sort (List.compare Int.compare)
      |> List.map (List.map Symbol.unsafe_of_int)
    in
    r.sorted_view <- Some view;
    view

(* File [tuple] under its key on [positions]: the one keyed-bucket insert
   behind maintained indexes and transient hash tables alike. *)
let bucket_add tbl positions tuple =
  let key = List.map (fun p -> tuple.(p)) positions in
  let cur = Option.value ~default:[] (KeyTbl.find_opt tbl key) in
  KeyTbl.replace tbl key (tuple :: cur)

let buckets r positions =
  let tbl = KeyTbl.create (max 64 (relation_size r)) in
  Hashtbl.iter (fun tuple () -> bucket_add tbl positions tuple) r.tuples;
  tbl

let relation_add r tuple =
  if Hashtbl.mem r.tuples tuple then false
  else begin
    Hashtbl.add r.tuples tuple ();
    r.sorted_view <- None;
    (* keep existing indexes in sync *)
    List.iter (fun (positions, tbl) -> bucket_add tbl positions tuple) r.indexes;
    true
  end

let relation_index r positions =
  match List.assoc_opt positions r.indexes with
  | Some tbl -> tbl
  | None ->
    let tbl = buckets r positions in
    r.indexes <- (positions, tbl) :: r.indexes;
    r.index_builds <- r.index_builds + 1;
    tbl

let relation_lookup r positions key =
  if positions = [] then
    Hashtbl.fold (fun t () acc -> t :: acc) r.tuples []
  else
    let tbl = relation_index r positions in
    Option.value ~default:[] (KeyTbl.find_opt tbl key)

(* ------------------------------------------------------------------ *)
(* Compiled clauses *)

type cterm = Plan.cterm = CV of int | CC of int

type catom = Plan.catom =
  | CPred of Symbol.t * cterm array
  | CEq of cterm * cterm
  | CDom of cterm

let compile_clause (c : Ndl.clause) =
  let vars = Ndl.clause_vars c in
  let index = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.replace index v i) vars;
  let cterm = function
    | Ndl.Var v -> CV (Hashtbl.find index v)
    | Ndl.Cst c -> CC (c :> int)
  in
  let catom = function
    | Ndl.Pred (p, ts) -> CPred (p, Array.of_list (List.map cterm ts))
    | Ndl.Eq (t1, t2) -> CEq (cterm t1, cterm t2)
    | Ndl.Dom t -> CDom (cterm t)
  in
  let head = Array.of_list (List.map cterm (snd c.head)) in
  (List.length vars, Array.of_list vars, head, List.map catom c.body)

type compiled = {
  nvars : int;
  names : string array;
  head : cterm array;
  plan : Plan.t;
}

(* ------------------------------------------------------------------ *)
(* Evaluation *)

type result = {
  answers : Symbol.t list list;
  generated_tuples : int;
  tuples_read : int;
  idb_relations : relation Symbol.Map.t;
}

type env = {
  relations : relation Symbol.Tbl.t;  (* EDB (from the ABox) and IDB *)
  abox : Abox.t;
  external_edb : Symbol.t -> int -> Symbol.t list list option;
  domain : int array;
  domain_set : (int, unit) Hashtbl.t;
  budget : Budget.t;
  observe : bool;
      (* when false — unobserved batch runs on a worker domain — the
         driver must not touch the global telemetry sink or the fault
         registry; the matcher itself never does *)
  explain : (string -> unit) option;
  mutable reads : int;
      (* tuples delivered from relation storage or domain sweeps — the
         engine-work measure the eval-plan bench gates on.  First-atom
         candidates rejected by a worker's partition filter are not
         counted, so the total is identical at every worker count *)
}

let get_relation env p ~arity =
  match Symbol.Tbl.find_opt env.relations p with
  | Some r -> r
  | None ->
    (* an EDB predicate: the external source first, then the ABox *)
    let r = relation_create arity in
    (match env.external_edb p arity with
    | Some tuples ->
      List.iter
        (fun tuple ->
          ignore
            (relation_add r
               (Array.of_list (List.map (fun (c : Symbol.t) -> (c :> int)) tuple))))
        tuples
    | None -> (
      match arity with
      | 1 ->
        List.iter
          (fun (c : Symbol.t) -> ignore (relation_add r [| (c :> int) |]))
          (Abox.unary_members env.abox p)
      | 2 ->
        List.iter
          (fun ((c : Symbol.t), (d : Symbol.t)) ->
            ignore (relation_add r [| (c :> int); (d :> int) |]))
          (Abox.binary_members env.abox p)
      | 0 -> ()
      | n -> invalid_arg (Printf.sprintf "Eval: EDB predicate of arity %d" n)));
    Symbol.Tbl.replace env.relations p r;
    r

(* Planner statistics, read off the evaluator's current state: exact
   relation sizes, exact distinct-key counts whenever an index on those
   positions has already been built, the active-domain size otherwise. *)
let stats_of_env env ~transient =
  {
    Plan.card =
      (fun p ->
        match Symbol.Tbl.find_opt env.relations p with
        | Some r -> relation_size r
        | None -> 0);
    distinct =
      (fun p probe ->
        match Symbol.Tbl.find_opt env.relations p with
        | Some r -> Option.map KeyTbl.length (List.assoc_opt probe r.indexes)
        | None -> None);
    transient = (fun p -> Symbol.Set.mem p transient);
    domain = Array.length env.domain;
  }

(* The naïve baseline is a plan choice: the written body under
   [Plan.trivial] instead of the cost model's reorder. *)
let compile_and_plan env ~naive ~transient (c : Ndl.clause) =
  let nvars, names, head, body = compile_clause c in
  List.iter
    (function
      | CPred (p, ts) -> ignore (get_relation env p ~arity:(Array.length ts))
      | CEq _ | CDom _ -> ())
    body;
  let plan =
    if naive then Plan.trivial ~nvars body
    else Plan.make (stats_of_env env ~transient) ~nvars body
  in
  (match env.explain with
  | Some f ->
    let hp, hts = c.head in
    let args =
      String.concat ","
        (List.map (fun t -> Format.asprintf "%a" Ndl.pp_term t) hts)
    in
    f
      (Printf.sprintf "%s(%s) <- %s" (Symbol.name hp) args
         (Plan.describe ~names plan))
  | None -> ());
  { nvars; names; head; plan }

(* Evaluate one compiled clause into [target].  [keep], if given, is a
   partition filter consulted only at the clause's first step: for a leading
   [CPred] it receives the hash of each candidate tuple, for a leading
   domain sweep (unbound [CDom], unbound–unbound [CEq]) the domain constant.
   A worker passing [keep] sees a disjoint slice of the first step's search
   space; the union over workers is exactly the sequential enumeration. *)
let eval_compiled env target ?keep cc =
  let { nvars; head; plan; _ } = cc in
  let accept = match keep with None -> fun _ -> true | Some k -> k in
  let binding = Array.make nvars (-1) in
  let value = function CV i -> binding.(i) | CC c -> c in
  let is_bound = function CV i -> binding.(i) >= 0 | CC _ -> true in
  let nsteps = List.length plan.Plan.steps in
  (* transient hash tables ([Hash] steps), built on first probe of this
     clause evaluation and never registered on the relation *)
  let hashes = Array.make (max 1 nsteps) None in
  let emit () =
    let tuple =
      Array.map
        (fun t ->
          let v = value t in
          assert (v >= 0);
          v)
        head
    in
    if relation_add target tuple then Budget.grow env.budget
  in
  let rec go ~first si steps =
    Budget.step env.budget;
    match steps with
    | [] -> emit ()
    | (step : Plan.step) :: rest -> (
      match step.atom with
      | CEq (t1, t2) -> (
        match (is_bound t1, is_bound t2) with
        | true, true -> if value t1 = value t2 then go ~first:false (si + 1) rest
        | true, false -> (
          match t2 with
          | CV i ->
            binding.(i) <- value t1;
            go ~first:false (si + 1) rest;
            binding.(i) <- -1
          | CC _ -> assert false)
        | false, true -> (
          match t1 with
          | CV i ->
            binding.(i) <- value t2;
            go ~first:false (si + 1) rest;
            binding.(i) <- -1
          | CC _ -> assert false)
        | false, false -> (
          (* last resort: both sides range over the active domain *)
          match (t1, t2) with
          | CV i, CV j ->
            Array.iter
              (fun c ->
                if (not first) || accept c then begin
                  env.reads <- env.reads + 1;
                  binding.(i) <- c;
                  binding.(j) <- c;
                  go ~first:false (si + 1) rest;
                  binding.(i) <- -1;
                  binding.(j) <- -1
                end)
              env.domain;
            binding.(i) <- -1;
            binding.(j) <- -1
          | _ -> assert false))
      | CDom t ->
        if is_bound t then begin
          (* membership in the active domain *)
          if Hashtbl.mem env.domain_set (value t) then
            go ~first:false (si + 1) rest
        end
        else (
          match t with
          | CV i ->
            Array.iter
              (fun c ->
                if (not first) || accept c then begin
                  env.reads <- env.reads + 1;
                  binding.(i) <- c;
                  go ~first:false (si + 1) rest
                end)
              env.domain;
            binding.(i) <- -1
          | CC _ -> assert false)
      | CPred (p, ts) ->
        let arity = Array.length ts in
        let r = get_relation env p ~arity in
        let matches =
          match step.strategy with
          | Plan.Scan ->
            (* unbound atom or tiny relation: enumerate everything and let
               [bind] filter any probed positions inline *)
            Hashtbl.fold (fun t () acc -> t :: acc) r.tuples []
          | Plan.Index ->
            let key = List.map (fun i -> value ts.(i)) step.probe in
            relation_lookup r step.probe key
          | Plan.Hash ->
            let tbl =
              match hashes.(si) with
              | Some tbl -> tbl
              | None ->
                let tbl = buckets r step.probe in
                hashes.(si) <- Some tbl;
                tbl
            in
            let key = List.map (fun i -> value ts.(i)) step.probe in
            Option.value ~default:[] (KeyTbl.find_opt tbl key)
        in
        List.iter
          (fun tuple ->
            if (not first) || accept (Hashtbl.hash tuple) then begin
              env.reads <- env.reads + 1;
              (* bind the unbound positions, checking intra-atom repetitions *)
              let rec bind i undo =
                if i = arity then begin
                  go ~first:false (si + 1) rest;
                  List.iter (fun j -> binding.(j) <- -1) undo
                end
                else
                  match ts.(i) with
                  | CC c -> if tuple.(i) = c then bind (i + 1) undo else List.iter (fun j -> binding.(j) <- -1) undo
                  | CV j ->
                    if binding.(j) >= 0 then
                      if binding.(j) = tuple.(i) then bind (i + 1) undo
                      else List.iter (fun j' -> binding.(j') <- -1) undo
                    else begin
                      binding.(j) <- tuple.(i);
                      bind (i + 1) (j :: undo)
                    end
              in
              bind 0 []
            end)
          matches)
  in
  go ~first:true 0 plan.Plan.steps

(* ------------------------------------------------------------------ *)
(* Rounds.

   A round evaluates a list of (stratum predicate index, compiled clause)
   assignments into fresh output relations, one set per worker.  Plans are
   computed once per clause on the main domain, so the set of bound
   positions at every step is static: before a pooled round, a prepass
   materialises every EDB relation and builds every index an [Index] step
   will probe — leaving the worker domains with pure reads of
   [env.relations] ([Hash] steps build their transient tables in
   worker-local memory).  Each worker derives under a [Budget.slice];
   the stratum driver merges the outputs. *)

let prepare_clause env cc =
  List.iter
    (fun (step : Plan.step) ->
      match step.atom with
      | CPred (p, ts) ->
        let r = get_relation env p ~arity:(Array.length ts) in
        if step.strategy = Plan.Index && step.probe <> [] then
          ignore (relation_index r step.probe)
      | CEq _ | CDom _ -> ())
    cc.plan.Plan.steps

(* How a clause's first-step search space is split across workers.  A
   leading [CPred] enumerates tuples (partition by tuple hash); a leading
   domain sweep enumerates constants (partition by constant).  Anything
   else — a leading bound [CEq]/[CDom], an empty body — explores a
   constant-size space, so the whole clause goes to one worker. *)
type scheme = Enum_tuples | Enum_domain | Whole

let scheme_of_plan (plan : Plan.t) =
  match plan.steps with
  | { atom = CPred _; _ } :: _ -> Enum_tuples
  | { atom = CEq (CV _, CV _); _ } :: _ ->
    Enum_domain (* nothing bound at the first step: a domain sweep *)
  | { atom = CDom (CV _); _ } :: _ -> Enum_domain
  | _ -> Whole

let eval_round env pool arities assignments =
  let fresh () = Array.map relation_create arities in
  match pool with
  | Some pool when Pool.jobs pool > 1 ->
    let jobs = Pool.jobs pool in
    List.iter (fun (_, cc) -> prepare_clause env cc) assignments;
    let work = Array.of_list assignments in
    let schemes = Array.map (fun (_, cc) -> scheme_of_plan cc.plan) work in
    let outs = Array.init jobs (fun _ -> fresh ()) in
    let slices =
      Array.init jobs (fun _ -> Budget.slice ~parts:jobs env.budget)
    in
    let wenvs =
      Array.init jobs (fun w -> { env with budget = slices.(w); reads = 0 })
    in
    Pool.run pool (fun w ->
        let wenv = wenvs.(w) in
        let keep h = (h land max_int) mod jobs = w in
        Array.iteri
          (fun ci (ti, cc) ->
            match schemes.(ci) with
            | Whole -> if ci mod jobs = w then eval_compiled wenv outs.(w).(ti) cc
            | Enum_tuples | Enum_domain ->
              eval_compiled wenv outs.(w).(ti) ~keep cc)
          work);
    (* worker budgets and read counts back into the parent *)
    Array.iter (fun s -> Budget.absorb env.budget ~from:s) slices;
    Array.iter (fun wenv -> env.reads <- env.reads + wenv.reads) wenvs;
    if env.observe then begin
      if Obs.enabled () then
        Array.iteri
          (fun w rels ->
            Obs.count
              (Printf.sprintf "eval.worker%d.derived" w)
              (Array.fold_left (fun acc r -> acc + relation_size r) 0 rels))
          outs;
      Obs.incr "eval.parallel_rounds"
    end;
    outs
  | _ ->
    let rels = fresh () in
    List.iter (fun (ti, cc) -> eval_compiled env rels.(ti) cc) assignments;
    [| rels |]

(* The one merge of derived tuples into full relations: every output set
   of [outs] into [into], also recording the genuinely new tuples in
   [delta] when given.  Returns how many were new. *)
let merge ?delta into outs =
  let added = ref 0 in
  Array.iter
    (Array.iteri (fun i (out : relation) ->
         Hashtbl.iter
           (fun tuple () ->
             if relation_add into.(i) tuple then begin
               incr added;
               Option.iter (fun d -> ignore (relation_add d.(i) tuple)) delta
             end)
           out.tuples))
    outs;
  !added

(* ------------------------------------------------------------------ *)
(* Compiled programs and the plan cache.

   The stratum structure (from [Ndl.strata]) and the clause groupings are
   data-independent and built upfront; per-clause plans are filled in
   lazily during the first evaluation, when the relations a clause reads
   have their true sizes (a fixpoint's delta variants are planned after
   round 0, against the actual base deltas).  A [plan_cache] keeps the
   whole compiled program across runs of the same query value: [Prepared]
   queries replan only when the store size drifts past a threshold. *)

type stratum = {
  preds : Symbol.t array;
  arities : int array;
  deltas : Symbol.t array;
      (* per predicate, the symbol its delta relation is registered under
         while the rerun clauses run; empty unless semi-naïve recursive *)
  transient : Symbol.Set.t;  (* the delta symbols, for the planner *)
  base_clauses : (int * Ndl.clause) list;  (* (predicate index, clause) *)
  rerun_clauses : (int * Ndl.clause) list;
      (* what every round after the first evaluates: the delta variants
         when semi-naïve, the base clauses again when naïve, nothing when
         the stratum is nonrecursive *)
  mutable base : (int * compiled) list option;
  mutable rerun : (int * compiled) list option;
}

type cached = {
  cfor : Ndl.query;  (* physical identity of the planned query *)
  cnaive : bool;
  catoms : int;  (* ABox size at plan time, for the replan threshold *)
  cstrata : stratum array;
}

type plan_cache = { mutable slot : cached option }

let plan_cache () = { slot = None }

let replan_factor = 2.0
(* a cached plan survives while |ABox| stays within this factor of its
   plan-time size in either direction *)

(* One delta variant per in-stratum body atom: that atom probes the delta
   relation, every other atom the full one. *)
let delta_variants delta_of (c : Ndl.clause) =
  let rec go prefix acc = function
    | [] -> List.rev acc
    | (Ndl.Pred (p, ts) as a) :: rest when Symbol.Map.mem p delta_of ->
      let variant =
        {
          c with
          Ndl.body =
            List.rev_append prefix
              (Ndl.Pred (Symbol.Map.find p delta_of, ts) :: rest);
        }
      in
      go (a :: prefix) (variant :: acc) rest
    | a :: rest -> go (a :: prefix) acc rest
  in
  go [] [] c.Ndl.body

let skeleton ~naive ~atoms (q : Ndl.query) =
  let by_head = Symbol.Tbl.create 16 in
  List.iter
    (fun (c : Ndl.clause) ->
      let cur =
        Option.value ~default:[] (Symbol.Tbl.find_opt by_head (fst c.head))
      in
      Symbol.Tbl.replace by_head (fst c.head) (c :: cur))
    q.clauses;
  let clauses_of p =
    List.rev (Option.value ~default:[] (Symbol.Tbl.find_opt by_head p))
  in
  let stratum (preds, recursive) =
    let preds = Array.of_list preds in
    let arities =
      Array.map
        (fun p ->
          match clauses_of p with
          | (c : Ndl.clause) :: _ -> List.length (snd c.head)
          | [] -> 0)
        preds
    in
    let base_clauses =
      List.concat
        (List.mapi
           (fun i p -> List.map (fun c -> (i, c)) (clauses_of p))
           (Array.to_list preds))
    in
    let semi_naive = recursive && not naive in
    let deltas =
      if semi_naive then
        Array.map (fun p -> Symbol.fresh ("delta:" ^ Symbol.name p)) preds
      else [||]
    in
    let rerun_clauses =
      if semi_naive then
        let delta_of =
          Symbol.Map.of_seq (Seq.zip (Array.to_seq preds) (Array.to_seq deltas))
        in
        List.concat_map
          (fun (i, c) -> List.map (fun v -> (i, v)) (delta_variants delta_of c))
          base_clauses
      else if recursive then base_clauses
      else []
    in
    {
      preds;
      arities;
      deltas;
      transient = Symbol.Set.of_list (Array.to_list deltas);
      base_clauses;
      rerun_clauses;
      base = None;
      rerun = None;
    }
  in
  {
    cfor = q;
    cnaive = naive;
    catoms = atoms;
    cstrata = Array.of_list (List.map stratum (Ndl.strata q));
  }

let cache_disposition ?plan ~naive (q : Ndl.query) abox =
  match plan with
  | None -> `Uncached
  | Some cache -> (
    match cache.slot with
    | Some cp when cp.cfor == q && cp.cnaive = naive ->
      let ratio =
        float_of_int (Abox.num_atoms abox) /. float_of_int (max 1 cp.catoms)
      in
      if ratio >= 1.0 /. replan_factor && ratio <= replan_factor then `Hit
      else `Replan
    | Some _ -> `Replan
    | None -> `Fresh)

(* ------------------------------------------------------------------ *)
(* The stratum driver.

   Round 0 evaluates the base clauses with the stratum's own relations
   empty; its output becomes the stratum's relation — and, for a recursive
   stratum, the first delta — without a copy (the sequential engine derives
   straight into it; a pool merges workers 1.. into worker 0's output).
   While a round adds tuples, the next round evaluates the rerun clauses
   and merges every output into the full relations and a fresh delta. *)

let eval_stratum env pool ~naive (st : stratum) =
  let register syms rels =
    Array.iteri (fun i p -> Symbol.Tbl.replace env.relations p rels.(i)) syms
  in
  let compile clauses =
    List.map
      (fun (i, c) -> (i, compile_and_plan env ~naive ~transient:st.transient c))
      clauses
  in
  let round ccs =
    if env.observe then begin
      Fault.hit Fault.eval_ndl_round;
      Obs.incr "eval.rounds"
    end;
    eval_round env pool st.arities ccs
  in
  let derived added =
    if env.observe then Obs.count "eval.derived_facts" added
  in
  register st.preds (Array.map relation_create st.arities);
  let base =
    match st.base with
    | Some ccs -> ccs
    | None ->
      let ccs = compile st.base_clauses in
      st.base <- Some ccs;
      ccs
  in
  let outs = round base in
  let full = outs.(0) in
  let own = Array.fold_left (fun n r -> n + relation_size r) 0 full in
  let added = own + merge full (Array.sub outs 1 (Array.length outs - 1)) in
  register st.preds full;
  derived added;
  if added > 0 && st.rerun_clauses <> [] then begin
    register st.deltas full;
    (* delta variants are planned once, here, against the true round-0
       sizes of the full and delta relations *)
    let rerun =
      match st.rerun with
      | Some ccs -> ccs
      | None ->
        let ccs = if naive then base else compile st.rerun_clauses in
        st.rerun <- Some ccs;
        ccs
    in
    let rec loop () =
      let outs = round rerun in
      let delta = Array.map relation_create st.arities in
      let added = merge ~delta full outs in
      derived added;
      if added > 0 then begin
        register st.deltas delta;
        loop ()
      end
    in
    loop ();
    (* the delta views are dead past the fixpoint *)
    Array.iter (Symbol.Tbl.remove env.relations) st.deltas
  end

(* ------------------------------------------------------------------ *)

let plan_gauges program =
  let index_probes = ref 0
  and hash_joins = ref 0
  and scans = ref 0
  and reordered = ref 0 in
  let note (_, (cc : compiled)) =
    if cc.plan.Plan.reordered then incr reordered;
    List.iter
      (fun (s : Plan.step) ->
        match s.atom with
        | CPred _ -> (
          match s.strategy with
          | Plan.Index -> incr index_probes
          | Plan.Hash -> incr hash_joins
          | Plan.Scan -> incr scans)
        | CEq _ | CDom _ -> ())
      cc.plan.Plan.steps
  in
  Array.iter
    (fun st ->
      List.iter note (Option.value ~default:[] st.base);
      (* a naïve rerun is the base plans again *)
      if not program.cnaive then
        List.iter note (Option.value ~default:[] st.rerun))
    program.cstrata;
  Obs.set_int "eval.plan.index_probes" !index_probes;
  Obs.set_int "eval.plan.hash_joins" !hash_joins;
  Obs.set_int "eval.plan.scans" !scans;
  Obs.set_int "eval.plan.reordered" !reordered

let run_unobserved ?pool ?plan ~naive ~observe ~budget ~edb ~extra_domain
    ~explain (q : Ndl.query) abox =
  let idb = Ndl.idb_preds q in
  let domain =
    Array.of_list
      (List.sort_uniq Int.compare
         (List.map
            (fun (c : Abox.const) -> (c :> int))
            (Abox.individuals abox @ extra_domain)))
  in
  let domain_set = Hashtbl.create (Array.length domain * 2) in
  Array.iter (fun c -> Hashtbl.replace domain_set c ()) domain;
  let env =
    {
      relations = Symbol.Tbl.create 64;
      abox;
      external_edb = edb;
      domain;
      domain_set;
      budget;
      observe;
      explain;
      reads = 0;
    }
  in
  let disposition = cache_disposition ?plan ~naive q abox in
  let program =
    match (disposition, plan) with
    | `Hit, Some cache -> Option.get cache.slot
    | (`Replan | `Fresh), Some cache ->
      let cp = skeleton ~naive ~atoms:(Abox.num_atoms abox) q in
      cache.slot <- Some cp;
      cp
    | _ -> skeleton ~naive ~atoms:(Abox.num_atoms abox) q
  in
  if observe then begin
    match disposition with
    | `Hit -> Obs.incr "eval.plan.cache_hits"
    | `Replan -> Obs.incr "eval.plan.replans"
    | `Fresh | `Uncached -> ()
  end;
  Array.iter (eval_stratum env pool ~naive) program.cstrata;
  let idb_relations =
    Symbol.Set.fold
      (fun p acc ->
        match Symbol.Tbl.find_opt env.relations p with
        | Some r -> Symbol.Map.add p r acc
        | None -> acc)
      idb Symbol.Map.empty
  in
  let generated_tuples =
    Symbol.Map.fold (fun _ r acc -> acc + relation_size r) idb_relations 0
  in
  let answers =
    match Symbol.Map.find_opt q.goal idb_relations with
    | Some r -> relation_tuples r
    | None -> []
  in
  if observe && Obs.enabled () then begin
    Obs.set_int "eval.answers" (List.length answers);
    Obs.set_int "eval.generated_tuples" generated_tuples;
    Obs.count "eval.tuples_read" env.reads;
    plan_gauges program;
    (match pool with
    | Some p when Pool.jobs p > 1 -> Obs.set_int "eval.workers" (Pool.jobs p)
    | _ -> ());
    if Budget.is_limited budget then begin
      Obs.set_int "budget.steps" (Budget.steps_spent budget);
      Obs.set_int "budget.size" (Budget.size_spent budget)
    end
  end;
  { answers; generated_tuples; tuples_read = env.reads; idb_relations }

let run ?pool ?plan ?(naive = false) ?(observe = true) ?(budget = Budget.none)
    ?(edb = fun _ _ -> None) ?(extra_domain = []) ?explain q abox =
  if observe then
    let attrs =
      let plan_attr =
        if naive then "naive"
        else
          match cache_disposition ?plan ~naive q abox with
          | `Hit -> "cached"
          | `Replan -> "replanned"
          | `Fresh | `Uncached -> "fresh"
      in
      ("plan", plan_attr)
      ::
      (match pool with
      | Some p when Pool.jobs p > 1 -> [ ("workers", string_of_int (Pool.jobs p)) ]
      | _ -> [])
    in
    Obs.with_span ~attrs "eval.ndl" (fun () ->
        run_unobserved ?pool ?plan ~naive ~observe ~budget ~edb ~extra_domain
          ~explain q abox)
  else
    run_unobserved ?pool ?plan ~naive ~observe ~budget ~edb ~extra_domain
      ~explain q abox

let answers ?pool ?observe ?budget ?plan ?naive q abox =
  (run ?pool ?observe ?budget ?plan ?naive q abox).answers

let boolean q abox =
  match (run q abox).answers with [] -> false | _ :: _ -> true

let explain ?(naive = false) ?(edb = fun _ _ -> None) q abox =
  let lines = ref [] in
  ignore
    (run ~observe:false ~naive ~edb ~explain:(fun s -> lines := s :: !lines) q
       abox);
  List.rev !lines

(* Testing hooks: the unit suite pins the relation-internals contract —
   indexes are built by one full scan per position list and then maintained
   incrementally, and the sorted tuple view is memoised until the next
   mutation. *)
module Internal = struct
  let relation_create = relation_create

  let relation_add r tuple =
    relation_add r (Array.of_list (List.map (fun (c : Symbol.t) -> (c :> int)) tuple))

  let relation_lookup r positions key =
    List.map
      (fun t -> List.map Symbol.unsafe_of_int (Array.to_list t))
      (relation_lookup r positions
         (List.map (fun (c : Symbol.t) -> (c :> int)) key))

  let index_builds r = r.index_builds
  let index_positions r = List.map fst r.indexes
  let sorted_view_memoised r = r.sorted_view <> None
end
