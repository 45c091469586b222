(* Measurement loop shared by the three workloads.

   A workload repeats a [setup] (building designs, operand streams,
   scenarios, tasks) and a [pass] over what it built until the run's
   time is up.  Every pass checks its own outputs and returns its
   metrics.  End-to-end figures are medians over the run, each
   calibrated for the host's speed around its pass (Calib).  In a
   traced run the iterations alternate untraced and traced: end-to-end
   figures come from the untraced ones, per-layer figures from the
   traced ones, and the ratio of the two is the tracing overhead. *)

type env = {
  seed : int;
  seconds : float;
  traced : bool;
  workers : int;  (** campaign pool size, never above the core count *)
}

(* Operations attempted and failed; the first few failure messages are
   kept for stderr. *)
type ops = { mutable attempted : int; mutable failed : int; mutable why : string list }

let ops = { attempted = 0; failed = 0; why = [] }

let attempt ok fmt =
  Printf.ksprintf
    (fun msg ->
       ops.attempted <- ops.attempted + 1;
       if not ok then begin
         ops.failed <- ops.failed + 1;
         if List.length ops.why < 8 then ops.why <- msg :: ops.why
       end)
    fmt

(* Checks that are not operations of their own (stored-value and
   tracing-accounting checks) mark the run incorrect. *)
let problems = ref []
let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt

let seconds_since t0 = Int64.to_float (Int64.sub (Tracing.now ()) t0) *. 1e-9

let timed f =
  let t0 = Tracing.now () in
  let v = f () in
  (v, seconds_since t0)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile p = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Iterations of a run, whatever its length. *)
let min_passes = 3

(* VmHWM: the process's peak resident set. *)
let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* The peak resident set after the first [min_passes] iterations: a
   fixed amount of work on the same inputs.  The peak of a whole run
   grows with the number of passes that fit in it, which the host's
   speed decides: 88 MB after three explore passes on every seed, and
   91-99 MB after 13-16. *)
let peak_rss_mb = ref 0.0

(* What one pass measured: end-to-end throughputs, per-layer figures,
   and the engine cycles it simulated (the base of
   gc.minor_words_per_cycle). *)
type pass = { e2e : (string * float) list; layers : (string * float) list; cycles : float }

(* One iteration: its set-up time in calibrated seconds, and its pass. *)
type sample = { setup_s : float; pass : pass }

(* Set up, then run one pass on what was set up, until [env.seconds]
   have elapsed, at least [min_passes] times.  Setting up before every
   pass spreads the set-up samples over the whole run.  The set-up is
   timed in calibrated seconds with probes on [domains] domains; a pass
   calibrates its own timed segments.  In a traced run every other
   iteration is traced, each set-up and pass as a root span; a traced
   pass also gets the Gc.quick_stat deltas over its run, less those of
   its probes.  Returns the untraced and the traced samples. *)
let measure env ~domains ~setup pass =
  let t0 = Tracing.now () in
  let plain = ref [] and traced = ref [] and i = ref 0 in
  while !i < min_passes || seconds_since t0 < env.seconds do
    let tr = env.traced && !i mod 2 = 1 in
    Tracing.on := tr;
    let x, _, setup_s = Tracing.span "setup" (fun () -> Calib.timed ~domains setup) in
    let g0 = Tracing.gc_now () and c0 = !Calib.gc_spent in
    let p = Tracing.span "pass" (fun () -> pass x) in
    let g =
      Tracing.gc_diff (Tracing.gc_diff c0 !Calib.gc_spent) (Tracing.gc_diff g0 (Tracing.gc_now ()))
    in
    Tracing.on := false;
    Printf.eprintf "pass %d%s: setup_s=%.6f %s\n%!" !i (if tr then " (traced)" else "") setup_s
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.6g" k v) p.e2e));
    if tr then
      let layers =
        ("gc.minor_words_per_cycle", g.Tracing.minor_words /. max 1.0 p.cycles)
        :: ("gc.minor_collections", float_of_int g.Tracing.minor_collections)
        :: ("gc.major_collections", float_of_int g.Tracing.major_collections)
        :: p.layers
      in
      traced := { setup_s; pass = { p with layers } } :: !traced
    else plain := { setup_s; pass = p } :: !plain;
    incr i;
    if !i = min_passes then peak_rss_mb := vm_hwm_mb ()
  done;
  (List.rev !plain, List.rev !traced)

(* Per-key [stat] over a list of metric lists. *)
let per_key stat = function
  | [] -> []
  | first :: _ as ms ->
    List.map (fun (k, _) -> (k, stat (List.filter_map (List.assoc_opt k) ms))) first

(* The end-to-end figures of a set of samples: medians over the run
   of the calibrated set-up time and of each throughput. *)
let end_to_end samples =
  ("setup_s", median (List.map (fun s -> s.setup_s) samples))
  :: per_key median (List.map (fun s -> s.pass.e2e) samples)

(* End-to-end figures from the untraced samples.  In a traced run also
   the per-layer medians of the traced passes, the workload's [extra]
   layer figures, the tracing overhead of each end-to-end metric as
   (traced / untraced - 1), and the median slowdown of the run's
   probes.  Returns (end-to-end, per-layer). *)
let report env (plain, traced) extra =
  let e2e = end_to_end plain in
  if not env.traced then (e2e, [])
  else
    let tr = end_to_end traced in
    let overhead =
      List.filter_map
        (fun (k, v) ->
           match List.assoc_opt k tr with
           | Some t when v > 0.0 -> Some ("trace.overhead." ^ k, (t /. v) -. 1.0)
           | Some _ | None -> None)
        e2e
    in
    ( e2e,
      (("calib.slowdown", median !Calib.probes) :: overhead)
      @ per_key median (List.map (fun s -> s.pass.layers) traced)
      @ extra )
