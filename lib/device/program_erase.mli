(** Pulse-level program and erase operations built on {!Transient}.

    Failures are typed [Gnrflash_resilience.Solver_error.t] values; an
    optional [?budget] bounds the underlying transient solve. *)

type error = Gnrflash_resilience.Solver_error.t

type pulse = {
  vgs : float;       (** control-gate bias during the pulse [V] *)
  duration : float;  (** pulse width [s] *)
}

type outcome = {
  qfg_before : float;
  qfg_after : float;
  dvt_after : float;      (** threshold shift after the pulse [V] *)
  injected_charge : float;(** |ΔQFG| [C] — feeds the reliability model *)
  saturated : bool;       (** the Jin = Jout event fired inside the pulse *)
}

(** {1 Oracle} *)

type oracle
(** What one pulse train remembers of its earlier solves: the
    {!Pulse_surrogate} table cache, the warm step size per polarity, and
    an exact-replay table of at most 64 entries. The caller owns it and
    creates one per train (an endurance run, a program-verify loop, a
    served array). Nothing is shared between oracles, so a train's results
    do not depend on what else ran on the domain. Not thread-safe: one
    oracle serves one domain at a time. *)

val oracle : ?surrogate:bool -> Fgt.t -> oracle
(** A fresh oracle for this device: its first solve is cold. [surrogate]
    (default [true]) enables the table cache. Pass [~surrogate:false] for
    bit-exact solver answers. *)

val tables : oracle -> Pulse_surrogate.cache option
(** The oracle's table cache; [None] when created with
    [~surrogate:false]. *)

(** {1 Pulses} *)

val apply_pulse :
  ?budget:Gnrflash_resilience.Budget.t ->
  oracle -> qfg:float -> pulse -> (outcome, error) result
(** Run one bias pulse from the given initial charge.

    Precedence is surrogate > exact replay > exact solve. The surrogate
    serves in-box pulses from the oracle's {!Pulse_surrogate} tables:
    O(log n) interpolation with a table-certified divergence bound instead
    of an adaptive ODE solve, with transparent fallback to the exact path
    for anything the table cannot certify (telemetry
    [surrogate/{hit,fallback,build}]).

    The exact path reuses the oracle's train history two ways. The
    previous same-polarity solve's first accepted step size seeds this
    solve's initial [dt] ([transient/warm_start_hit]). A (vgs, duration,
    qfg) key that repeats bit-for-bit returns this oracle's first solve of
    that key without integrating ([program_erase/pulse_replay]); a
    re-solve could differ from it in the last bits, because its warm
    [dt] would come from a later pulse. An active fault-injection plan
    bypasses the surrogate, the warm start and the replay table. *)

val solve :
  ?budget:Gnrflash_resilience.Budget.t ->
  oracle -> qfg:float -> pulse -> (outcome, error) result
(** {!apply_pulse} without the surrogate consult: exact replay > exact
    solve. For callers that consulted {!tables} themselves and must not
    count a second consult toward table promotion. *)

val program :
  ?budget:Gnrflash_resilience.Budget.t ->
  ?pulse:pulse -> oracle -> qfg:float -> (outcome, error) result
(** One programming pulse; defaults to the paper's VGS = 15 V for 1 ms. *)

val erase :
  ?budget:Gnrflash_resilience.Budget.t ->
  ?pulse:pulse -> oracle -> qfg:float -> (outcome, error) result
(** One erase pulse; defaults to VGS = −15 V for 1 ms. *)

val default_program_pulse : pulse
val default_erase_pulse : pulse

val cycle :
  ?program_pulse:pulse -> ?erase_pulse:pulse -> oracle -> qfg:float ->
  ((outcome * outcome), error) result
(** One full program-then-erase cycle; returns both outcomes. Long cycle
    trains through one oracle settle into replays. *)
