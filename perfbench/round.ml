(* What one round of a workload reports back to the run loop in main.ml. *)

type t = {
  ops : int;              (* operations attempted in the timed region *)
  setup_ns : int;         (* this round's set-up, host time *)
  wall_ns : int;          (* timed region, host time *)
  words : float;          (* minor words allocated in the timed region *)
  minor_gcs : int;
  major_gcs : int;
  model_us_per_op : float;  (* simulated device time per op *)
  digest : int * int;
  failures : Checks.failure list;
  layers : (string * float) list;  (* traced rounds only *)
}

(* Host time and allocation of [f ()]. Minor words are counted in the
   calling domain ([Gc.minor_words], exact: the service fleet runs
   there) or, with [all_domains], over every domain ([Gc.quick_stat],
   which sees a worker domain's words at its next minor collection). The
   counters and the clock are read once on each side; what the reads
   themselves allocate is measured by an empty region and taken off. *)
let measure ~all_domains f =
  let words () = if all_domains then (Gc.quick_stat ()).Gc.minor_words else Gc.minor_words () in
  let g0 = Gc.quick_stat () in
  let w0 = words () in
  let t0 = Spans.now_ns () in
  let v = f () in
  let t1 = Spans.now_ns () in
  let w1 = words () in
  let g1 = Gc.quick_stat () in
  ( v,
    t1 - t0,
    w1 -. w0,
    g1.Gc.minor_collections - g0.Gc.minor_collections,
    g1.Gc.major_collections - g0.Gc.major_collections )

let probe_words ~all_domains =
  let (), _, w, _, _ = measure ~all_domains ignore in
  w

let timed ~all_domains f =
  let v, ns, w, minor, major = measure ~all_domains f in
  (v, ns, w -. probe_words ~all_domains, minor, major)
