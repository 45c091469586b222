open Elastic_sim
module Metrics = Elastic_metrics.Metrics
module Json = Elastic_metrics.Json
module Span = Elastic_obs.Span
module Recorder = Elastic_obs.Recorder
module Collector = Elastic_obs.Collector

exception Deadline_exceeded of string

exception Killed of string

type ctx = {
  shard_id : string;
  shard_index : int;
  attempt : int;
  check_deadline : unit -> unit;
  obs : (Recorder.t * int) option;
}

type task = {
  id : string;
  work : ctx -> Metrics.sample list;
}

type classification =
  | Transient
  | Permanent

let default_classify = function
  | Engine.Simulation_error _ | Elastic_netlist.Diagnostic.Reject _
  | Invalid_argument _ | Failure _ | Assert_failure _ ->
    Permanent
  | Deadline_exceeded _ | Killed _ | _ -> Transient

type failure = {
  f_exn : string;
  f_class : classification;
}

type status =
  | Completed of Metrics.sample list
  | Failed of failure
  | Not_run

type shard = {
  sh_id : string;
  sh_index : int;
  sh_status : status;
  sh_attempts : int;
  sh_worker : int;
  sh_resumed : bool;
}

type worker_stats = {
  w_tasks : int;
  w_completed : int;
  w_retries : int;
  w_timeouts : int;
  w_steals : int;
}

type report = {
  r_name : string;
  r_shards : shard list;
  r_merged : Metrics.sample list;
  r_completed : int;
  r_failed : int;
  r_not_run : int;
  r_resumed : int;
  r_workers : worker_stats array;
  r_stopped : bool;
}

let class_name = function
  | Transient -> "transient"
  | Permanent -> "permanent"

(* Mutable per-worker accounting, touched only by the owning worker. *)
type w_acc = {
  mutable a_tasks : int;
  mutable a_completed : int;
  mutable a_retries : int;
  mutable a_timeouts : int;
  mutable a_steals : int;
}

let run ?workers ?(max_attempts = 3) ?(seed = 2009)
    ?(classify = default_classify) ?shard_deadline ?campaign_deadline
    ?(clock = Clock.monotonic) ?(sleep = Unix.sleepf) ?checkpoint ?resume
    ?command ?stop_after ?registry ?obs ?progress ~name tasks =
  let nw =
    match workers with
    | Some w when w <= 0 -> invalid_arg "Runner.run: non-positive workers"
    | Some w -> w
    | None -> Pool_backend.recommended ()
  in
  if max_attempts < 1 then
    invalid_arg "Runner.run: max_attempts must be >= 1";
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  (match progress with
   | Some p when Progress.shards p <> n ->
     invalid_arg
       (Fmt.str "Runner.run: progress plane has %d shards, campaign has %d"
          (Progress.shards p) n)
   | Some _ | None -> ());
  let ids = Hashtbl.create n in
  Array.iter
    (fun t ->
       if Hashtbl.mem ids t.id then
         invalid_arg (Fmt.str "Runner.run: duplicate task id %S" t.id);
       Hashtbl.add ids t.id ())
    tasks;
  let start = clock () in
  (* Adopt checkpointed shards: matched by task id, never re-run. *)
  let adopted = Hashtbl.create 16 in
  (match resume with
   | None -> ()
   | Some (cp : Checkpoint.t) ->
     List.iter
       (fun (e : Checkpoint.entry) ->
          if Hashtbl.mem ids e.e_id then
            Hashtbl.replace adopted e.e_id e)
       cp.entries);
  let statuses = Array.make n Not_run in
  let attempts = Array.make n 0 in
  let finished_by = Array.make n (-1) in
  let resumed = Array.make n false in
  let carried = ref [] in
  Array.iteri
    (fun i t ->
       match Hashtbl.find_opt adopted t.id with
       | Some (e : Checkpoint.entry) ->
         statuses.(i) <- Completed e.e_samples;
         resumed.(i) <- true;
         (match progress with
          | Some p -> Progress.adopt p ~shard:i e.e_samples
          | None -> ());
         carried := { e with Checkpoint.e_index = i } :: !carried
       | None -> ())
    tasks;
  let carried = List.rev !carried in
  (* Seed (or re-seed) the checkpoint file with the header plus carried
     entries, atomically; workers then append one line per shard. *)
  let global = Pool_backend.create_lock () in
  (match checkpoint with
   | None -> ()
   | Some path ->
     Checkpoint.write ~path
       { Checkpoint.campaign = name; command; shards = n; seed }
       carried);
  (* Per-worker deques of shard indices: shard i starts on worker
     [i mod nw]; idle workers steal from siblings. *)
  let deques = Array.make nw [] in
  let deque_locks = Array.init nw (fun _ -> Pool_backend.create_lock ()) in
  for i = n - 1 downto 0 do
    if not resumed.(i) then
      let w = i mod nw in
      deques.(w) <- i :: deques.(w)
  done;
  let stats =
    Array.init nw (fun _ ->
        { a_tasks = 0; a_completed = 0; a_retries = 0; a_timeouts = 0;
          a_steals = 0 })
  in
  let stopped = ref false in
  let completions = ref 0 in
  (* Span ledger: one single-writer recorder per worker, a campaign
     root on track 0 entered before the workers start and left after
     they join (no concurrent writer either side of the run). *)
  (match obs with
   | Some c -> Collector.prepare c ~tracks:nw
   | None -> ());
  let orec w =
    match obs with None -> None | Some c -> Some (Collector.track c w)
  in
  let camp_scope =
    match orec 0 with
    | None -> None
    | Some r0 ->
      Some
        (Recorder.enter r0 Span.Campaign name
           ~attrs:
             [ ("workers", Span.Int nw);
               ("shards", Span.Int n);
               ("resumed", Span.Int (List.length carried)) ])
  in
  let camp_id =
    match camp_scope with
    | Some sc -> Recorder.id sc
    | None -> Span.no_parent
  in
  let note_completion ?ckpt_span e =
    Pool_backend.with_lock global (fun () ->
        incr completions;
        (match checkpoint with
         | Some path -> (
             match ckpt_span with
             | Some (r, parent) ->
               let sc =
                 Recorder.enter r ~parent Span.Checkpoint_write
                   "checkpoint-write"
               in
               Checkpoint.append ~path e;
               Recorder.leave r sc
             | None -> Checkpoint.append ~path e)
         | None -> ());
        match stop_after with
        | Some k when !completions >= k -> stopped := true
        | Some _ | None -> ())
  in
  let campaign_expired now =
    match campaign_deadline with
    | Some d -> Clock.seconds_between start now > d
    | None -> false
  in
  let pop_own w =
    Pool_backend.with_lock deque_locks.(w) (fun () ->
        match deques.(w) with
        | [] -> None
        | i :: rest ->
          deques.(w) <- rest;
          Some i)
  in
  let steal thief =
    let rec try_from k =
      if k >= nw then None
      else
        let victim = (thief + k) mod nw in
        match
          Pool_backend.with_lock deque_locks.(victim) (fun () ->
              match List.rev deques.(victim) with
              | [] -> None
              | i :: rest_rev ->
                deques.(victim) <- List.rev rest_rev;
                Some i)
        with
        | Some i -> Some i
        | None -> try_from (k + 1)
    in
    try_from 1
  in
  let take w =
    if Pool_backend.with_lock global (fun () -> !stopped) then None
    else if campaign_expired (clock ()) then begin
      Pool_backend.with_lock global (fun () -> stopped := true);
      None
    end
    else
      match pop_own w with
      | Some i -> Some (i, false)
      | None -> (
          match steal w with
          | Some i -> Some (i, true)
          | None -> None)
  in
  let run_shard w rng ~stolen i =
    let t = tasks.(i) in
    let r = orec w in
    let shard_scope =
      match r with
      | None -> None
      | Some rc ->
        Some
          (Recorder.enter rc ~parent:camp_id Span.Shard t.id
             ~attrs:
               [ ("worker", Span.Int w);
                 ("index", Span.Int i);
                 ("stolen", Span.Bool stolen) ])
    in
    let shard_id =
      match shard_scope with
      | Some sc -> Recorder.id sc
      | None -> Span.no_parent
    in
    let rec attempt_loop attempt =
      stats.(w).a_tasks <- stats.(w).a_tasks + 1;
      attempts.(i) <- attempt;
      (match progress with
       | Some p -> Progress.start_shard p ~shard:i ~worker:w ~attempt
       | None -> ());
      let attempt_start = clock () in
      let att_scope =
        match r with
        | None -> None
        | Some rc ->
          Some
            (Recorder.enter rc ~parent:shard_id Span.Attempt
               (Fmt.str "attempt-%d" attempt)
               ~attrs:[ ("attempt", Span.Int attempt) ])
      in
      (* Deadline margin at the attempt's end: how much of the shard's
         wall-clock budget was left (negative when it fired). *)
      let leave_attempt () =
        match (r, att_scope) with
        | Some rc, Some sc ->
          (match shard_deadline with
           | Some d ->
             Recorder.add_attr sc "deadline_margin_s"
               (Span.Float
                  (d -. Clock.seconds_between attempt_start (clock ())))
           | None -> ());
          Recorder.leave rc sc
        | _ -> ()
      in
      let check_deadline () =
        let now = clock () in
        (* Heartbeat for the telemetry watchdog, reusing the reading the
           deadline check just made — no extra clock traffic. *)
        (match progress with
         | Some p -> Progress.beat_at p ~shard:i now
         | None -> ());
        if campaign_expired now then
          raise
            (Deadline_exceeded
               (Fmt.str "campaign %S wall-clock deadline exceeded" name));
        match shard_deadline with
        | Some d when Clock.seconds_between attempt_start now > d ->
          raise
            (Deadline_exceeded
               (Fmt.str
                  "shard %S attempt %d exceeded its %gs wall-clock budget"
                  t.id attempt d))
        | Some _ | None -> ()
      in
      let ctx =
        { shard_id = t.id; shard_index = i; attempt; check_deadline;
          obs =
            (match (r, att_scope) with
             | Some rc, Some sc -> Some (rc, Recorder.id sc)
             | _ -> None) }
      in
      match t.work ctx with
      | samples ->
        statuses.(i) <- Completed samples;
        finished_by.(i) <- w;
        stats.(w).a_completed <- stats.(w).a_completed + 1;
        let seconds = Clock.seconds_between attempt_start (clock ()) in
        (match progress with
         | Some p -> Progress.complete p ~shard:i ~seconds samples
         | None -> ());
        Option.iter
          (fun sc -> Recorder.add_attr sc "status" (Span.Str "ok"))
          att_scope;
        note_completion
          ?ckpt_span:
            (match (r, att_scope) with
             | Some rc, Some sc -> Some (rc, Recorder.id sc)
             | _ -> None)
          { Checkpoint.e_id = t.id; e_index = i; e_attempts = attempt;
            e_seconds = seconds;
            e_samples = samples };
        leave_attempt ()
      | exception e ->
        (match e with
         | Deadline_exceeded _ ->
           stats.(w).a_timeouts <- stats.(w).a_timeouts + 1
         | _ -> ());
        let cls = classify e in
        (match att_scope with
         | Some sc ->
           Recorder.add_attr sc "status" (Span.Str "failed");
           Recorder.add_attr sc "class" (Span.Str (class_name cls));
           Recorder.add_attr sc "error" (Span.Str (Printexc.to_string e))
         | None -> ());
        if cls = Transient && attempt < max_attempts then begin
          stats.(w).a_retries <- stats.(w).a_retries + 1;
          let delay = Backoff.delay Backoff.default ~rng ~attempt in
          (match (r, att_scope) with
           | Some rc, Some sc ->
             let bsc =
               Recorder.enter rc ~parent:(Recorder.id sc)
                 Span.Backoff_sleep "backoff-sleep"
                 ~attrs:
                   [ ("delay_s", Span.Float delay);
                     ("attempt", Span.Int attempt) ]
             in
             sleep delay;
             Recorder.leave rc bsc
           | _ -> sleep delay);
          leave_attempt ();
          attempt_loop (attempt + 1)
        end
        else begin
          statuses.(i) <-
            Failed { f_exn = Printexc.to_string e; f_class = cls };
          finished_by.(i) <- w;
          (match progress with
           | Some p -> Progress.fail p ~shard:i
           | None -> ());
          leave_attempt ()
        end
    in
    attempt_loop 1;
    match (r, shard_scope) with
    | Some rc, Some sc ->
      Recorder.add_attr sc "attempts" (Span.Int attempts.(i));
      Recorder.add_attr sc "status"
        (Span.Str
           (match statuses.(i) with
            | Completed _ -> "completed"
            | Failed _ -> "failed"
            | Not_run -> "not-run"));
      Recorder.leave rc sc
    | _ -> ()
  in
  let body w =
    (* Worker-local jitter stream: distinct per worker, reproducible
       from the campaign seed. *)
    let rng = Rng.create ~seed:(seed + (7919 * w)) in
    let rec loop () =
      match take w with
      | None -> ()
      | Some (i, stolen) ->
        if stolen then stats.(w).a_steals <- stats.(w).a_steals + 1;
        run_shard w rng ~stolen i;
        loop ()
    in
    loop ()
  in
  if n > 0 then Pool_backend.run_workers nw body;
  (* Close the campaign root and derive the scheduling gauges while the
     wall time is at hand. *)
  let campaign_wall_seconds =
    match (orec 0, camp_scope) with
    | Some r0, Some sc ->
      let wall =
        Clock.seconds_between (Recorder.start_ns sc) (Recorder.now r0)
      in
      Recorder.leave r0 sc;
      wall
    | _ -> 0.0
  in
  (match (obs, registry) with
   | Some c, Some reg ->
     Collector.note_gauges c ~wall_seconds:campaign_wall_seconds reg
   | _ -> ());
  (* Assemble the report: shards in index order, merge in index order —
     this is what makes merged results worker-count-independent. *)
  let shards =
    List.init n (fun i ->
        { sh_id = tasks.(i).id;
          sh_index = i;
          sh_status = statuses.(i);
          sh_attempts = attempts.(i);
          sh_worker = finished_by.(i);
          sh_resumed = resumed.(i) })
  in
  let merged =
    List.fold_left
      (fun acc sh ->
         match sh.sh_status with
         | Completed samples -> Metrics.merge acc samples
         | Failed _ | Not_run -> acc)
      [] shards
  in
  let count p = List.length (List.filter p shards) in
  let workers_stats =
    Array.map
      (fun a ->
         { w_tasks = a.a_tasks; w_completed = a.a_completed;
           w_retries = a.a_retries; w_timeouts = a.a_timeouts;
           w_steals = a.a_steals })
      stats
  in
  (match registry with
   | None -> ()
   | Some reg ->
     Array.iteri
       (fun w a ->
          let labels = [ ("worker", string_of_int w) ] in
          Metrics.Counter.add
            (Metrics.counter reg ~labels
               ~help:"shard attempts started by this worker"
               "elastic_runner_tasks_total")
            a.a_tasks;
          Metrics.Counter.add
            (Metrics.counter reg ~labels
               ~help:"transient-failure retries by this worker"
               "elastic_runner_retries_total")
            a.a_retries;
          Metrics.Counter.add
            (Metrics.counter reg ~labels
               ~help:"wall-clock deadline hits observed by this worker"
               "elastic_runner_timeouts_total")
            a.a_timeouts;
          Metrics.Counter.add
            (Metrics.counter reg ~labels
               ~help:"tasks stolen from sibling deques"
               "elastic_runner_steals_total")
            a.a_steals)
       stats);
  { r_name = name;
    r_shards = shards;
    r_merged = merged;
    r_completed = count (fun s -> match s.sh_status with
        | Completed _ -> true | _ -> false);
    r_failed = count (fun s -> match s.sh_status with
        | Failed _ -> true | _ -> false);
    r_not_run = count (fun s -> s.sh_status = Not_run);
    r_resumed = count (fun s -> s.sh_resumed);
    r_workers = workers_stats;
    r_stopped = Pool_backend.with_lock global (fun () -> !stopped) }

let pp_report ppf r =
  Fmt.pf ppf "campaign %S: %d shards — %d completed" r.r_name
    (List.length r.r_shards) r.r_completed;
  if r.r_resumed > 0 then Fmt.pf ppf " (%d resumed)" r.r_resumed;
  Fmt.pf ppf ", %d failed, %d not run%s@," r.r_failed r.r_not_run
    (if r.r_stopped then " [stopped early]" else "");
  List.iter
    (fun sh ->
       match sh.sh_status with
       | Failed f ->
         Fmt.pf ppf "  shard %s (index %d): FAILED %s after %d attempt%s: %s@,"
           sh.sh_id sh.sh_index (class_name f.f_class) sh.sh_attempts
           (if sh.sh_attempts = 1 then "" else "s")
           f.f_exn
       | Not_run ->
         Fmt.pf ppf "  shard %s (index %d): not run@," sh.sh_id sh.sh_index
       | Completed _ -> ())
    r.r_shards;
  Array.iteri
    (fun w s ->
       Fmt.pf ppf
         "  worker %d: %d attempts, %d completed, %d retries, %d timeouts, \
          %d steals@,"
         w s.w_tasks s.w_completed s.w_retries s.w_timeouts s.w_steals)
    r.r_workers

let report_json r =
  let shard_json sh =
    let status, extra =
      match sh.sh_status with
      | Completed _ -> ("completed", [])
      | Failed f ->
        ( "failed",
          [ ("error", Json.Str f.f_exn);
            ("class", Json.Str (class_name f.f_class)) ] )
      | Not_run -> ("not_run", [])
    in
    Json.Obj
      (( [ ("id", Json.Str sh.sh_id);
           ("index", Json.Int sh.sh_index);
           ("status", Json.Str status);
           ("attempts", Json.Int sh.sh_attempts);
           ("resumed", Json.Bool sh.sh_resumed) ]
         @ extra ))
  in
  let worker_json w s =
    Json.Obj
      [ ("worker", Json.Int w);
        ("tasks", Json.Int s.w_tasks);
        ("completed", Json.Int s.w_completed);
        ("retries", Json.Int s.w_retries);
        ("timeouts", Json.Int s.w_timeouts);
        ("steals", Json.Int s.w_steals) ]
  in
  Json.Obj
    [ ("campaign", Json.Str r.r_name);
      ("shards", Json.Int (List.length r.r_shards));
      ("completed", Json.Int r.r_completed);
      ("failed", Json.Int r.r_failed);
      ("not_run", Json.Int r.r_not_run);
      ("resumed", Json.Int r.r_resumed);
      ("stopped", Json.Bool r.r_stopped);
      ("shard_detail", Json.List (List.map shard_json r.r_shards));
      ("workers",
       Json.List
         (Array.to_list (Array.mapi worker_json r.r_workers))) ]
