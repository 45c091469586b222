(* In-memory span ledger for the traced run.

   Spans are recorded from the benchmark's own code, around each call
   into a library layer; nothing inside the libraries is instrumented.
   With tracing off, [span] is a plain call.  Spans stay in memory and
   are written out as JSONL when the run ends.

   The ledger is single-writer: only the main domain calls [span].
   Work that runs on runner domains is timed into per-task slots by the
   caller and added afterwards with [add]. *)

let now = Elastic_sim.Clock.monotonic

type gc = { minor_words : float; minor_collections : int; major_collections : int }

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  t0 : int64;
  t1 : int64;
  gc : gc;  (** Gc.quick_stat delta over the span (zero for [add]ed spans) *)
}

let on = ref false
let ledger : span list ref = ref []
let next_id = ref 1
let open_spans = ref []

let no_gc = { minor_words = 0.0; minor_collections = 0; major_collections = 0 }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections }

let gc_diff a b =
  { minor_words = b.minor_words -. a.minor_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections }

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* Innermost open span, 0 at top level. *)
let current () = match !open_spans with id :: _ -> id | [] -> 0

let add ~parent name t0 t1 =
  ledger := { id = fresh_id (); parent; name; t0; t1; gc = no_gc } :: !ledger

let span name f =
  if not !on then f ()
  else begin
    let id = fresh_id () and parent = current () in
    open_spans := id :: !open_spans;
    let g0 = gc_now () in
    let t0 = now () in
    let close () =
      let t1 = now () in
      let gc = gc_diff g0 (gc_now ()) in
      open_spans := List.tl !open_spans;
      ledger := { id; parent; name; t0; t1; gc } :: !ledger
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

let spans () = List.rev !ledger

let seconds s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-9

(* Durations of every recorded span with this name. *)
let durations name =
  List.filter_map (fun s -> if String.equal s.name name then Some (seconds s) else None) !ledger

(* Self time: a span's duration minus the part of it that its children
   cover (children on parallel domains may overlap; their union counts
   once). *)
let self_seconds spans =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) spans;
  fun s ->
    let ivs =
      Hashtbl.find_all kids s.id
      |> List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1))
      |> List.filter (fun (a, b) -> Int64.compare a b < 0)
      |> List.sort compare
    in
    let covered, _ =
      List.fold_left
        (fun (acc, edge) (a, b) ->
           let a = max a edge in
           if Int64.compare a b < 0 then (Int64.add acc (Int64.sub b a), b)
           else (acc, edge))
        (0L, s.t0) ivs
    in
    seconds s -. (Int64.to_float covered *. 1e-9)

(* Share of the roots' wall time that named child layers account for:
   1 - (root self time / root duration), summed over all roots. *)
let accounted_share spans =
  let self = self_seconds spans in
  let roots = List.filter (fun s -> s.parent = 0) spans in
  let wall = List.fold_left (fun a s -> a +. seconds s) 0.0 roots in
  let unexplained = List.fold_left (fun a s -> a +. self s) 0.0 roots in
  if wall > 0.0 then 1.0 -. (unexplained /. wall) else 0.0

let write_jsonl path spans =
  let self = self_seconds spans in
  let oc = open_out path in
  List.iter
    (fun s ->
       Printf.fprintf oc
         "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%Ld,\"end_ns\":%Ld,\
          \"self_s\":%.9f,\"minor_words\":%.0f,\"minor_collections\":%d,\
          \"major_collections\":%d}\n"
         s.id s.parent s.name s.t0 s.t1 (self s) s.gc.minor_words
         s.gc.minor_collections s.gc.major_collections)
    spans;
  close_out oc
