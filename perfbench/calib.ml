(* Host-speed calibration.

   On a shared host the cores this benchmark runs on slow down by up
   to 1.8x in phases that last from seconds to minutes: other tenants
   share the physical cores, and a process's CPU time stretches with
   its wall time, so neither clock removes it.  A set of ten 30-second
   runs that falls into such a phase reads up to 40% slower than the
   next set on the same code.

   So every timed segment of a run is bracketed by probes: a fixed
   kernel that uses none of the repository's code, timed on as many
   domains as the segment uses.  The ratio of the probe's time to
   [reference_s], its time on an uncontended core of the reference
   host, is its slowdown; the segment's time is divided by the mean
   slowdown of the probes around it.  A calibrated second is a second
   of that reference core.  A change to the program moves the segment
   and not the probe, so it shows in full.

   Over 180 s of back-to-back 20,000-cycle Engine.run samples, each
   between two probes, the median run time of 22-second windows
   drifted by up to 42%, and the median of run time over probe time by
   3%. *)

(* A random cyclic permutation of 2^16 slots, 512 KiB: the probe's
   pointer chase misses L1 and mostly hits L2, like the engine's walks
   over its channel and node tables. *)
let next =
  let n = 1 lsl 16 in
  let order = Array.init n Fun.id in
  let st = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let next = Array.make n 0 in
  Array.iteri (fun i v -> next.(v) <- order.((i + 1) mod n)) order;
  next

(* Pointer chasing, integer work, hash-table updates and short-lived
   allocation, in a fixed mix. *)
let kernel n =
  let tbl = Hashtbl.create 4096 in
  let p = ref 0 and acc = ref 0 and live = ref [] in
  for i = 1 to n do
    p := next.(!p);
    acc := !acc + ((!p lxor i) land 1023);
    if i land 7 = 0 then Hashtbl.replace tbl (!p land 4095) i;
    if i land 15 = 0 then
      (match Hashtbl.find_opt tbl (i land 4095) with Some v -> acc := !acc + v | None -> ());
    live := (i, !p) :: (if i land 63 = 0 then [] else !live)
  done;
  !acc + List.length !live

let iterations = 1_000_000

(* The probe's time on an uncontended core of the reference host (a
   2-vCPU Xeon VM, OCaml 5.1.1): the fastest of 600 probes. *)
let reference_s = 0.0135

(* A short untimed run first brings the permutation back into cache
   after the segment before the probe evicted it. *)
let time_kernel () =
  ignore (Sys.opaque_identity (kernel (iterations / 8)));
  let t0 = Tracing.now () in
  ignore (Sys.opaque_identity (kernel iterations));
  Int64.to_float (Int64.sub (Tracing.now ()) t0) *. 1e-9

(* Each domain's probe time over [reference_s]: 1 on an uncontended
   reference core, above 1 when the host is slower.  With several
   domains, the harmonic mean: the runner's work stealing moves tasks
   to the faster core, so a pool's speed is the sum of its cores'
   speeds. *)
let slowdown ~domains =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn time_kernel) in
  let mine = time_kernel () in
  let all = mine :: List.map Domain.join others in
  float_of_int domains /. List.fold_left (fun a t -> a +. (reference_s /. t)) 0.0 all

(* Every probe's slowdown in this run, the latest first, and when the
   latest ended. *)
let probes = ref []
let last_end = ref 0L

(* Allocation and collections inside probes, which Harness takes out of
   a traced pass's GC deltas. *)
let gc_spent = ref Tracing.no_gc

let probe ~domains =
  let g0 = Tracing.gc_now () in
  let s = Tracing.span "calib" (fun () -> slowdown ~domains) in
  let g = Tracing.gc_diff g0 (Tracing.gc_now ()) in
  gc_spent :=
    { Tracing.minor_words = !gc_spent.Tracing.minor_words +. g.Tracing.minor_words;
      minor_collections = !gc_spent.Tracing.minor_collections + g.Tracing.minor_collections;
      major_collections = !gc_spent.Tracing.major_collections + g.Tracing.major_collections };
  probes := s :: !probes;
  last_end := Tracing.now ();
  s

(* A probe that ended this recently, with only the benchmark's own
   checks since, still describes the host: the next segment takes it as
   its probe before. *)
let fresh_ns = 50_000_000L

(* [f ()], its time as measured, and its time in calibrated seconds:
   the measured time over the mean slowdown of a probe on [domains]
   domains before it and one after. *)
let timed ~domains f =
  let before =
    match !probes with
    | s :: _ when Int64.sub (Tracing.now ()) !last_end < fresh_ns -> s
    | _ -> probe ~domains
  in
  let t0 = Tracing.now () in
  let v = f () in
  let dt = Int64.to_float (Int64.sub (Tracing.now ()) t0) *. 1e-9 in
  let after = probe ~domains in
  (v, dt, dt /. ((before +. after) /. 2.0))
