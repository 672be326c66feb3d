let non_empty name xs =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty sample")

let mean xs =
  non_empty "mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  non_empty "variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    ss /. float_of_int (n - 1)
  end

let std xs = sqrt (variance xs)

let min_max xs =
  non_empty "min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (xs.(0), xs.(0)) xs

(* Stdlib's ternary heap sort (the algorithm behind [Array.sort]),
   specialised to [float array] with [Float.compare] — polymorphic
   [compare]'s order on floats. It makes the same comparisons and moves,
   so ties (-0. against 0., NaNs) land where [Array.sort compare] puts
   them, but no element is boxed on the way. *)
let sort_in_place a =
  let l = Array.length a in
  (* largest of node i's up-to-three children below [l], or -1 if none *)
  let maxson l i =
    let c = (3 * i) + 1 in
    if c + 2 < l then begin
      let x = if Float.compare a.(c) a.(c + 1) < 0 then c + 1 else c in
      if Float.compare a.(x) a.(c + 2) < 0 then c + 2 else x
    end
    else if c + 1 < l && Float.compare a.(c) a.(c + 1) < 0 then c + 1
    else if c < l then c
    else -1
  in
  (* heapify: sift each inner node's element down *)
  for i0 = ((l + 1) / 3) - 1 downto 0 do
    let e = a.(i0) in
    let i = ref i0 and j = ref (maxson l i0) in
    while !j >= 0 && Float.compare a.(!j) e > 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson l !j
    done;
    a.(!i) <- e
  done;
  for n = l - 1 downto 2 do
    (* move the root out, pull the larger child up along one path to a
       leaf of the shrunk heap, then sift the displaced element up from
       that leaf *)
    let e = a.(n) in
    a.(n) <- a.(0);
    let i = ref 0 and j = ref (maxson n 0) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson n !j
    done;
    let fin = ref false in
    while not !fin do
      let father = (!i - 1) / 3 in
      if Float.compare a.(father) e < 0 then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          fin := true
        end
      end
      else begin
        a.(!i) <- e;
        fin := true
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let sorted xs =
  let ys = Array.copy xs in
  sort_in_place ys;
  ys

let median xs =
  non_empty "median" xs;
  let ys = sorted xs in
  let n = Array.length ys in
  if n mod 2 = 1 then ys.(n / 2)
  else 0.5 *. (ys.((n / 2) - 1) +. ys.(n / 2))

let percentile p xs =
  non_empty "percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of [0, 100]";
  let ys = sorted xs in
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))
  end

type histogram = {
  edges : float array;
  counts : int array;
}

let histogram ~bins xs =
  non_empty "histogram" xs;
  if bins < 1 then invalid_arg "Stats.histogram: bins < 1";
  let lo, hi = min_max xs in
  let hi = if Float.equal hi lo then lo +. 1. else hi in
  let w = (hi -. lo) /. float_of_int bins in
  let edges = Array.init (bins + 1) (fun i -> lo +. (float_of_int i *. w)) in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
       let i = int_of_float ((x -. lo) /. w) in
       let i = if i >= bins then bins - 1 else if i < 0 then 0 else i in
       counts.(i) <- counts.(i) + 1)
    xs;
  { edges; counts }

let geometric_mean xs =
  non_empty "geometric_mean" xs;
  let s =
    Array.fold_left
      (fun acc x ->
         if x <= 0. then invalid_arg "Stats.geometric_mean: non-positive sample";
         acc +. log x)
      0. xs
  in
  exp (s /. float_of_int (Array.length xs))

let rms_log_ratio a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Stats.rms_log_ratio: length mismatch";
  non_empty "rms_log_ratio" a;
  let acc = ref 0. in
  for i = 0 to n - 1 do
    if a.(i) <= 0. || b.(i) <= 0. then
      invalid_arg "Stats.rms_log_ratio: non-positive sample";
    let d = log10 (a.(i) /. b.(i)) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)
