(* Measurement plumbing for the benchmark: wall clock, raw-sample
   percentiles, counter snapshots, in-memory spans and the result line. *)

(* Monotonic clock with nanosecond resolution (CLOCK_MONOTONIC). *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* -- raw samples -- *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let sorted s =
  let b = Array.sub s.a 0 s.n in
  Array.sort compare b;
  b

(* Nearest-rank percentile of the raw samples, with the number of
   samples strictly beyond it (the count that makes a tail percentile
   trustworthy). *)
let percentile s p =
  if s.n = 0 then (nan, 0)
  else
    let b = sorted s in
    let rank = max 1 (int_of_float (ceil (p *. float_of_int s.n))) in
    let v = b.(rank - 1) in
    let beyond = ref 0 in
    Array.iter (fun x -> if x > v then incr beyond) b;
    (v, !beyond)

let median s = fst (percentile s 0.5)

(* -- process memory -- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* -- spans --

   One span per call the benchmark makes into a layer. They are kept in
   memory and written out at the end; with tracing off [span] is a plain
   call. [op] is the cycle or transaction id shared by one operation's
   spans. *)

type span = {
  layer : string;
  name : string;
  t0 : float;
  mutable t1 : float;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  op : int;
}

let tracing = ref false
let spans : span array ref = ref [||]
let nspans = ref 0
let open_span = ref (-1)
let current_op = ref 0

let set_op id = current_op := id

let push sp =
  if !nspans = Array.length !spans then begin
    let b = Array.make (max 4096 (2 * !nspans)) sp in
    Array.blit !spans 0 b 0 !nspans;
    spans := b
  end;
  !spans.(!nspans) <- sp;
  incr nspans

let span layer name f =
  if not !tracing then f ()
  else begin
    let id = !nspans in
    push { layer; name; t0 = now_s (); t1 = nan; parent = !open_span; op = !current_op };
    let parent = !open_span in
    open_span := id;
    Fun.protect
      ~finally:(fun () ->
        !spans.(id).t1 <- now_s ();
        open_span := parent)
      f
  end

(* A layer's self time: its spans' durations minus the part covered by
   their direct children (spans nest strictly on one domain). *)
let layer_report () =
  let child = Array.make !nspans 0.0 in
  for i = 0 to !nspans - 1 do
    let sp = !spans.(i) in
    if sp.parent >= 0 then
      child.(sp.parent) <- child.(sp.parent) +. (sp.t1 -. sp.t0)
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to !nspans - 1 do
    let sp = !spans.(i) in
    let self = sp.t1 -. sp.t0 -. child.(i) in
    let s, c = try Hashtbl.find tbl sp.layer with Not_found -> (0.0, 0) in
    Hashtbl.replace tbl sp.layer (s +. self, c + 1)
  done;
  List.sort compare (Hashtbl.fold (fun l (s, c) acc -> (l, s, c) :: acc) tbl [])

let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\top\tlayer\tname\tstart_s\tend_s\n";
      for i = 0 to !nspans - 1 do
        let sp = !spans.(i) in
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%.9f\t%.9f\n" i sp.parent sp.op
          sp.layer sp.name sp.t0 sp.t1
      done)

(* -- result -- *)

type metric = { mname : string; unit_ : string; value : float; note : string }

let json_float v =
  if Float.is_nan v then "null"
  else if Float.is_integer v then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname
          (json_float m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)
