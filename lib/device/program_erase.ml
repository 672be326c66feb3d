module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error
module Budget = Gnrflash_resilience.Budget
module Fault = Gnrflash_resilience.Fault

type error = Err.t

type pulse = {
  vgs : float;
  duration : float;
}

type outcome = {
  qfg_before : float;
  qfg_after : float;
  dvt_after : float;
  injected_charge : float;
  saturated : bool;
}

let default_program_pulse = { vgs = 15.; duration = 1e-3 }
let default_erase_pulse = { vgs = -15.; duration = 1e-3 }

(* ---------- the pulse oracle ---------- *)

(* Pulse trains (endurance cycling, program-verify loops, a served array)
   re-solve the same transient over and over. An oracle is the one value
   that remembers a train's earlier solves, owned by whoever runs the
   train:

   - surrogate tables (Pulse_surrogate.cache), consulted first;
   - step-size warm start: the first accepted step of the previous
     same-polarity solve seeds the next solve's [h0], skipping the
     cold-start step-size search ([transient/warm_start_hit]);
   - exact replay: once the train settles into its floating-point limit
     cycle the (vgs, duration, qfg) key repeats bit-exactly, and a repeated
     key returns this oracle's first solve of it without integrating
     ([program_erase/pulse_replay]). A re-solve could differ from it in
     the last bits, since its warm [h0] would come from a later pulse.

   Under an active fault-injection plan all three are bypassed, lookup and
   store alike: a fault-poisoned solve must not be remembered, and a
   remembered clean outcome must not mask the fault path. *)

type oracle = {
  device : Fgt.t;
  tables : Pulse_surrogate.cache option;  (* None: surrogate off *)
  replays : (float * float * float, outcome) Hashtbl.t;
  h_last : (bool, float) Hashtbl.t;  (* keyed by vgs >= 0 *)
}

let oracle ?(surrogate = true) device =
  {
    device;
    tables = (if surrogate then Some (Pulse_surrogate.cache device) else None);
    replays = Hashtbl.create 32;
    h_last = Hashtbl.create 2;
  }

let tables o = o.tables

(* Limit cycles are short (a program/erase pair per distinct charge state);
   cap the table well above that and reset wholesale if it ever fills. *)
let max_replay_entries = 64

(* replay > solve, warm unless a fault plan is active *)
let exact_body ?budget o ~faulted ~qfg pulse =
  let key = (pulse.vgs, pulse.duration, qfg) in
  match if faulted then None else Hashtbl.find_opt o.replays key with
  | Some outcome ->
    Tel.count "program_erase/pulse_replay";
    if outcome.saturated then Tel.count "program_erase/saturated";
    Ok outcome
  | None ->
    let h0 =
      if faulted then None
      else
        match Hashtbl.find_opt o.h_last (pulse.vgs >= 0.) with
        | Some h ->
          Tel.count "transient/warm_start_hit";
          Some h
        | None -> None
    in
    (match
       Budget.with_opt budget @@ fun () ->
       Transient.run ?h0 ~qfg0:qfg o.device ~vgs:pulse.vgs ~duration:pulse.duration
     with
     | Error e -> Error e
     | Ok r ->
       if Option.is_some r.Transient.tsat then Tel.count "program_erase/saturated";
       let outcome =
         {
           qfg_before = qfg;
           qfg_after = r.Transient.qfg_final;
           dvt_after = r.Transient.dvt_final;
           injected_charge = abs_float (r.Transient.qfg_final -. qfg);
           saturated = Option.is_some r.Transient.tsat;
         }
       in
       if not faulted then begin
         (match r.Transient.h_first with
          | Some h -> Hashtbl.replace o.h_last (pulse.vgs >= 0.) h
          | None -> ());
         if Hashtbl.length o.replays >= max_replay_entries then
           Hashtbl.reset o.replays;
         Hashtbl.replace o.replays key outcome
       end;
       Ok outcome)

let pulse_span ?budget o ~consult ~qfg pulse =
  if pulse.duration <= 0. then
    Error
      (Err.make ~solver:"Program_erase.apply_pulse"
         (Err.Invalid_input "duration <= 0"))
  else Tel.span "program_erase/pulse" @@ fun () ->
    Tel.count "program_erase/pulse";
    let faulted = Fault.active () in
    let sur =
      match o.tables with
      | Some c when consult && not faulted ->
        Pulse_surrogate.pulse_response ?budget c ~vgs:pulse.vgs
          ~duration:pulse.duration ~qfg
      | _ -> None
    in
    match sur with
    | Some r ->
      if r.Pulse_surrogate.saturated then Tel.count "program_erase/saturated";
      let qfg_after = r.Pulse_surrogate.qfg_after in
      Ok
        {
          qfg_before = qfg;
          qfg_after;
          dvt_after = Fgt.threshold_shift o.device ~qfg:qfg_after;
          injected_charge = abs_float (qfg_after -. qfg);
          saturated = r.Pulse_surrogate.saturated;
        }
    | None -> exact_body ?budget o ~faulted ~qfg pulse

let apply_pulse ?budget o ~qfg pulse = pulse_span ?budget o ~consult:true ~qfg pulse
let solve ?budget o ~qfg pulse = pulse_span ?budget o ~consult:false ~qfg pulse

let program ?budget ?(pulse = default_program_pulse) o ~qfg =
  apply_pulse ?budget o ~qfg pulse

let erase ?budget ?(pulse = default_erase_pulse) o ~qfg =
  apply_pulse ?budget o ~qfg pulse

let cycle ?(program_pulse = default_program_pulse)
    ?(erase_pulse = default_erase_pulse) o ~qfg =
  match program ~pulse:program_pulse o ~qfg with
  | Error e -> Error e
  | Ok p ->
    (match erase ~pulse:erase_pulse o ~qfg:p.qfg_after with
     | Error e -> Error e
     | Ok e -> Ok (p, e))
