(** Block-level command layer: page program with ISPP verify and disturb
    accounting, block erase, page read. Operation counts and failure
    statistics are accumulated for the endurance experiments. *)

type stats = {
  programs : int;
  erases : int;
  reads : int;
  program_failures : int;   (** ISPP exhausted its voltage range *)
  disturb_events : int;     (** inhibited-cell exposures accumulated *)
}

val empty_stats : stats

type t = {
  block : Array_model.t;
  stats : stats;
  ispp : Gnrflash_device.Ispp.config;
  disturb : Gnrflash_device.Disturb.config;
  oracle : Gnrflash_device.Program_erase.oracle;
      (** every program and erase pulse on the block; shared by all values
          derived from this one *)
}

val make :
  ?ispp:Gnrflash_device.Ispp.config ->
  ?disturb:Gnrflash_device.Disturb.config ->
  Array_model.t -> t
(** Wrap a block, with a fresh oracle for its device. Every cell of the
    block must share one device record: pulses run on the device of page
    0, string 0, while stress, wear and readout use each cell's own. Defaults:
    {!Gnrflash_device.Ispp.default} and the VGS/2 inhibit scheme at the
    ISPP start voltage. *)

val program_page : t -> page:int -> data:int array -> (t, string) result
(** Program the page to [data] (1 bit per string; 0 = program the cell,
    1 = leave erased). Programmed cells run the ISPP loop; inhibited cells
    on the same word line accumulate one disturb exposure per ISPP pulse
    used. @raise Invalid_argument on a data-length mismatch. *)

val erase_block : t -> (t, string) result
(** Erase every cell of the block with the default erase pulse. *)

val read_page : t -> page:int -> (t * int array, string) result
(** Read the page; bumps the read counter. *)

val verify_page : t -> page:int -> data:int array -> bool
(** True when the stored page matches [data]. *)
