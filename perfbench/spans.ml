(* In-memory span recorder for the traced run.

   Each span is one call the benchmark makes into a layer's public
   function: its name, parent span, round id, start and end time
   (monotonic ns) and the minor-heap word counter at both ends. Spans
   live in one flat preallocated int array, so recording allocates
   nothing; the first traced round's spans are written out as CSV when
   the run ends. *)

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

(* [Gc.minor_words] is an unboxed external: reading it allocates nothing.
   It counts the calling domain only, which is the one the traced
   service calls run on. *)
let minor_words () = int_of_float (Gc.minor_words ())

let stride = 7 (* name, parent, round, start, stop, words at start, at stop *)

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable data : int array;
  mutable len : int;
  mutable current : int; (* open span, -1 at top level *)
  mutable round : int;
}

let create ~capacity =
  {
    ids = Hashtbl.create 16;
    names = [||];
    data = Array.make (stride * max 16 capacity) 0;
    len = 0;
    current = -1;
    round = 0;
  }

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
    let id = Array.length t.names in
    Hashtbl.add t.ids name id;
    t.names <- Array.append t.names [| name |];
    id

let set_round t r = t.round <- r

let enter t id =
  if stride * (t.len + 1) > Array.length t.data then begin
    let bigger = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 bigger 0 (stride * t.len);
    t.data <- bigger
  end;
  let i = t.len in
  let o = stride * i in
  t.len <- i + 1;
  t.data.(o) <- id;
  t.data.(o + 1) <- t.current;
  t.data.(o + 2) <- t.round;
  t.data.(o + 5) <- minor_words ();
  t.current <- i;
  t.data.(o + 3) <- now_ns ();
  i

let leave t i =
  let o = stride * i in
  t.data.(o + 4) <- now_ns ();
  t.data.(o + 6) <- minor_words ();
  t.current <- t.data.(o + 1)

let span t id f =
  let i = enter t id in
  match f () with
  | v ->
    leave t i;
    v
  | exception e ->
    leave t i;
    raise e

(* Words the recorder allocates per span, from an empty span (expected
   0; measured rather than assumed). *)
let probe_words =
  lazy
    (let t = create ~capacity:1 in
     let i = enter t (intern t "probe") in
     leave t i;
     t.data.(6) - t.data.(5))

(* ---------- reading ---------- *)

type summary = {
  count : int;
  total_ns : int;
  self_ns : int;      (* duration minus the time covered by child spans *)
  words : int;        (* minor words allocated inside, children included *)
  durations : int array;  (* sorted ascending *)
}

let duration t i = t.data.((stride * i) + 4) - t.data.((stride * i) + 3)

(* Summary of every span named [name] in round [round]; the recorder's
   own words per span are taken off each span's words. *)
let summary t ~round name =
  let probe_words = Lazy.force probe_words in
  let id = match Hashtbl.find_opt t.ids name with Some id -> id | None -> -1 in
  let child = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.data.((stride * i) + 1) in
    if p >= 0 then child.(p) <- child.(p) + duration t i
  done;
  let durs = ref [] and count = ref 0 and total = ref 0 and self = ref 0
  and words = ref 0 in
  for i = 0 to t.len - 1 do
    let o = stride * i in
    if t.data.(o) = id && t.data.(o + 2) = round then begin
      let d = duration t i in
      incr count;
      total := !total + d;
      self := !self + d - child.(i);
      words := !words + t.data.(o + 6) - t.data.(o + 5) - probe_words;
      durs := d :: !durs
    end
  done;
  let durations = Array.of_list !durs in
  Array.sort compare durations;
  { count = !count; total_ns = !total; self_ns = !self; words = !words; durations }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

(* One round's spans as CSV: times in ns from the round's first span,
   names as indices into the header line. *)
let write t ~round path =
  let oc = open_out path in
  Printf.fprintf oc "# names: %s\n"
    (String.concat " " (Array.to_list (Array.mapi (Printf.sprintf "%d=%s") t.names)));
  output_string oc "id,name,parent,start_ns,duration_ns,minor_words\n";
  let origin = ref (-1) in
  for i = 0 to t.len - 1 do
    let o = stride * i in
    if t.data.(o + 2) = round then begin
      if !origin < 0 then origin := t.data.(o + 3);
      Printf.fprintf oc "%d,%d,%d,%d,%d,%d\n" i t.data.(o) t.data.(o + 1)
        (t.data.(o + 3) - !origin) (duration t i) (t.data.(o + 6) - t.data.(o + 5))
    end
  done;
  close_out oc
