(* Windowed per-pid rate series: a grid of counters, one row per pid, one
   column per window of [window] consecutive steps. This is the empirical
   lens of the paper's rate claims — a timely process shows a bounded
   number of completions in every window of the tail, an untimely one's
   row decays towards zero.

   Unbounded by default (rows grow with the run — fine for bounded
   experiment horizons), or bounded with [?retain]: a ring of the most
   recent [retain] windows per pid, older cells folded into a per-pid
   evicted total so [total]/[totals] stay exact while live memory is
   O(n · retain) regardless of horizon. *)

type t = {
  window : int;
  n : int;
  retain : int option;
  mutable rows : int array array;
      (* pid -> per-window counts. Unbounded mode: index = window id,
         grown by doubling. Bounded mode: a ring of [retain] slots,
         window w lives at slot [w mod retain]. *)
  mutable windows : int;  (* 1 + highest window index touched *)
  mutable first_kept : int;  (* bounded mode: lowest window still in ring *)
  evicted : int array;  (* bounded mode: per-pid counts rolled out *)
}

let create ?(window = 1024) ?retain ~n () =
  if window < 1 then invalid_arg "Series.create: window must be positive";
  (match retain with
  | Some r when r < 1 -> invalid_arg "Series.create: retain must be positive"
  | _ -> ());
  let width = match retain with Some r -> r | None -> 16 in
  {
    window;
    n;
    retain;
    rows = Array.init n (fun _ -> Array.make width 0);
    windows = 0;
    first_kept = 0;
    evicted = Array.make n 0;
  }

let window t = t.window
let windows t = t.windows
let retain t = t.retain

(* Roll the ring forward so window [w] fits: fold every window that falls
   off the back into the evicted totals. At most [retain] slots need
   touching however far the run jumps. *)
let evict_upto t r ~w =
  let new_first = w - r + 1 in
  if new_first > t.first_kept then begin
    let from = t.first_kept in
    let upto = Int.min (new_first - 1) (from + r - 1) in
    for pid = 0 to t.n - 1 do
      let row = t.rows.(pid) in
      let acc = ref 0 in
      for ww = from to upto do
        let slot = ww mod r in
        acc := !acc + row.(slot);
        row.(slot) <- 0
      done;
      t.evicted.(pid) <- t.evicted.(pid) + !acc
    done;
    (* Slots for windows in (upto, new_first) were never touched (the run
       jumped more than [retain] windows at once) and are already zero. *)
    t.first_kept <- new_first
  end

let bump t ~pid ~step =
  if pid >= 0 && pid < t.n then begin
    let w = step / t.window in
    (match t.retain with
    | None ->
      let row = t.rows.(pid) in
      let row =
        if w < Array.length row then row
        else begin
          let bigger = Array.make (Int.max (2 * Array.length row) (w + 1)) 0 in
          Array.blit row 0 bigger 0 (Array.length row);
          t.rows.(pid) <- bigger;
          bigger
        end
      in
      row.(w) <- row.(w) + 1
    | Some r ->
      if w < t.first_kept then
        (* Behind the ring (can't happen with a monotone step stream);
           count it as already evicted so totals stay exact. *)
        t.evicted.(pid) <- t.evicted.(pid) + 1
      else begin
        evict_upto t r ~w;
        let slot = w mod r in
        t.rows.(pid).(slot) <- t.rows.(pid).(slot) + 1
      end);
    if w + 1 > t.windows then t.windows <- w + 1
  end

(* Cell value of window [w] for [pid], 0 outside the stored range. *)
let cell t ~pid ~w =
  match t.retain with
  | None ->
    let row = t.rows.(pid) in
    if w >= 0 && w < Array.length row then row.(w) else 0
  | Some r ->
    if w >= t.first_kept && w < t.first_kept + r then t.rows.(pid).(w mod r)
    else 0

(* Cell-wise sum over the pid × window grid. Both series must have been
   built against the same process count, window size and retention —
   merging rates bucketed on different step grids would be meaningless.
   In bounded mode the merged ring starts at the later of the two
   [first_kept] marks; cells only one side still holds fold into the
   evicted totals, exactly as time itself would have evicted them. *)
let merge a b =
  if a.n <> b.n then invalid_arg "Series.merge: process counts differ";
  if a.window <> b.window then invalid_arg "Series.merge: window sizes differ";
  if not (Option.equal Int.equal a.retain b.retain) then
    invalid_arg "Series.merge: retentions differ";
  let windows = Int.max a.windows b.windows in
  match a.retain with
  | None ->
    {
      window = a.window;
      n = a.n;
      retain = None;
      rows =
        Array.init a.n (fun pid ->
            Array.init (Int.max 16 windows) (fun w ->
                cell a ~pid ~w + cell b ~pid ~w));
      windows;
      first_kept = 0;
      evicted = Array.make a.n 0;
    }
  | Some r ->
    let first_kept = Int.max a.first_kept b.first_kept in
    let rows = Array.init a.n (fun _ -> Array.make r 0) in
    let evicted = Array.make a.n 0 in
    let side_evicted (s : t) pid =
      let acc = ref s.evicted.(pid) in
      for w = s.first_kept to first_kept - 1 do
        acc := !acc + cell s ~pid ~w
      done;
      !acc
    in
    for pid = 0 to a.n - 1 do
      evicted.(pid) <- side_evicted a pid + side_evicted b pid;
      for w = first_kept to Int.min windows (first_kept + r) - 1 do
        rows.(pid).(w mod r) <- cell a ~pid ~w + cell b ~pid ~w
      done
    done;
    { window = a.window; n = a.n; retain = Some r; rows; windows; first_kept;
      evicted }

let copy t =
  {
    window = t.window;
    n = t.n;
    retain = t.retain;
    rows = Array.map Array.copy t.rows;
    windows = t.windows;
    first_kept = t.first_kept;
    evicted = Array.copy t.evicted;
  }

let row t ~pid =
  (* Zero-padded to the global width; in bounded mode evicted windows
     read as zero (their counts live only in the totals). *)
  Array.init t.windows (fun w -> cell t ~pid ~w)

let total t ~pid =
  Array.fold_left ( + ) 0 t.rows.(pid)
  + (match t.retain with None -> 0 | Some _ -> t.evicted.(pid))

let totals t = Array.init t.n (fun pid -> total t ~pid)

let mean_per_window t ~pid =
  if t.windows = 0 then 0.0
  else float_of_int (total t ~pid) /. float_of_int t.windows

let to_json t =
  Json.Obj
    [
      "window", Json.Int t.window;
      "windows", Json.Int t.windows;
      ( "per_pid",
        Json.Arr
          (List.init t.n (fun pid ->
               Json.Arr
                 (Array.to_list (row t ~pid) |> List.map (fun c -> Json.Int c))))
      );
      ( "totals",
        Json.Arr (Array.to_list (totals t) |> List.map (fun c -> Json.Int c)) );
      ( "mean_per_window",
        Json.Arr (List.init t.n (fun pid -> Json.Float (mean_per_window t ~pid)))
      );
    ]
