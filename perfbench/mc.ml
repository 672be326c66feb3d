(* The Monte-Carlo variation workload: [Variation.sample_devices] on the
   paper's device with the default spread, on the domain pool. Every
   round must reproduce the jobs-1 reference bit for bit. *)

module V = Gnrflash_device.Variation
module Fgt = Gnrflash_device.Fgt
module Sweep = Gnrflash_parallel.Sweep
module Tel = Gnrflash_telemetry.Telemetry

let base = Fgt.paper_default

(* Set-up: the perturbed device of every slot (the inputs the checks
   compare against) and a pool that is spawned and awake. *)
let setup ~seed ~n ~jobs =
  let devices = Array.init n (fun index -> V.perturbed ~seed ~index ~base ()) in
  if jobs > 1 then
    ignore (Sweep.map ~jobs ~serial_cutoff:0. Fun.id (Array.init jobs Fun.id) : int array);
  devices

let run ~seed ~n ~jobs = V.sample_devices ~seed ~jobs ~base ~n ()

(* Simulated programming time per device, over the devices that reach
   the threshold. *)
let model_us_per_op samples =
  let t = ref 0. and k = ref 0 in
  Array.iter
    (fun s ->
       if Float.is_finite s.V.program_time then begin
         t := !t +. s.V.program_time;
         incr k
       end)
    samples;
  1e6 *. !t /. float_of_int (max 1 !k)

(* Slots re-solved directly by the checks: first, last and two between. *)
let direct_indices n = List.sort_uniq compare [ 0; n / 3; (2 * n) / 3; n - 1 ]

let corrupt_sample (samples : V.sample array) =
  let c = Array.copy samples in
  let s = c.(0) in
  c.(0) <- { s with V.program_time = Float.succ s.V.program_time };
  c

let corrupt_label (samples : V.sample array) =
  let c = Array.copy samples in
  c.(0) <- { (c.(0)) with V.solve_failed = true;
             failure = Some (Gnrflash_resilience.Solver_error.make ~solver:"perfbench"
                               (Gnrflash_resilience.Solver_error.Invalid_input "corrupted")) };
  c

let check ?corrupt ~reference ~devices samples =
  let samples =
    match corrupt with
    | Some "sample" -> corrupt_sample samples
    | Some "failure_label" -> corrupt_label samples
    | _ -> samples
  in
  let devices =
    match corrupt with
    | Some "perturbation" ->
      let d = Array.copy devices in
      d.(0) <- Fgt.with_xto d.(0) (d.(0).Fgt.xto *. 1.01);
      d
    | _ -> devices
  in
  Checks.samples ~reference samples @ Checks.solves samples @ Checks.perturbation ~devices samples

(* Once per run, on the jobs-1 reference: a few slots re-solved outside
   the sweep. *)
let check_reference ?corrupt ~devices reference =
  let reference = if corrupt = Some "direct_solve" then corrupt_sample reference else reference in
  Checks.solves reference
  @ Checks.perturbation ~devices reference
  @ Checks.direct_solve ~devices ~indices:(direct_indices (Array.length reference)) reference

(* Physics counters of one traced ensemble, per sample. *)
let physics_layers ~n =
  let per name = float_of_int (Tel.counter_total name) /. float_of_int n in
  [
    ("physics.transient_solves_per_sample", per "transient/solve");
    ("physics.rhs_evals_per_sample", per "ode/rhs_eval");
    ("physics.steps_rejected_per_sample", per "ode/step_rejected");
  ]
