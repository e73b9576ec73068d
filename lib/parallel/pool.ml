(* A dependency-free OCaml 5 domain pool for run-level fan-out.

   Every parallel workload in this repo is embarrassingly parallel at the
   run level: independent seeded simulations (campaign cells, fuzz
   batches, explore root branches, experiments) that never share a
   runtime. The pool distributes the task indices over domains in chunks
   claimed from one atomic counter, captures per-task exceptions (a
   failed cell reports against its index, it does not kill the pool), and
   writes every result into the task's own slot of a preallocated array —
   so the output order is the canonical task order no matter which domain
   finished first, and the result is byte-identical for any domain count.

   One domain (or one task) bypasses domains entirely: the sequential
   path is a plain loop, with no spawn, no atomics and no join, so
   [~domains:1] reproduces single-threaded behaviour exactly.

   Each map call spawns its (at most [domains - 1]) worker domains
   afresh and joins them before returning. Runs here last milliseconds to
   minutes, so spawn cost is noise; keeping domains scoped to one call
   means an exception can never leak a wedged worker. *)

type t = { domains : int }

type error = { task : int; message : string; backtrace : string }

exception Task_failed of error list

let () =
  Printexc.register_printer (function
    | Task_failed errors ->
      Some
        (Printf.sprintf "Pool.Task_failed [%s]"
           (String.concat "; "
              (List.map
                 (fun e -> Printf.sprintf "task %d: %s" e.task e.message)
                 errors)))
    | _ -> None)

(* Leave headroom above the machine: hyper-oversubscribing domains only
   thrashes minor heaps. The default follows the runtime's
   recommendation, capped so CI boxes with huge core counts don't spawn
   a domain army for five tasks. *)
let max_domains = 64
let default_cap = 8

let default_domains () =
  max 1 (min default_cap (Domain.recommended_domain_count ()))

let create ?domains () =
  let d = match domains with Some d -> d | None -> default_domains () in
  { domains = max 1 (min max_domains d) }

let domains t = t.domains

let capture_error task exn =
  {
    task;
    message = Printexc.to_string exn;
    backtrace = Printexc.get_backtrace ();
  }

let run t ~tasks f =
  if tasks < 0 then invalid_arg "Pool.run: negative task count";
  if tasks = 0 then [||]
  else begin
    let results = Array.make tasks None in
    let exec i =
      results.(i) <-
        Some (try Ok (f i) with exn -> Error (capture_error i exn))
    in
    let d = min t.domains tasks in
    if d <= 1 then
      for i = 0 to tasks - 1 do
        exec i
      done
    else begin
      (* Chunked self-scheduling: ~4 chunks per domain balances load
         without contending on the counter once per task. Chunks are
         claimed dynamically but land in fixed slots, so distribution
         order never shows in the output. *)
      let chunk = max 1 ((tasks + (4 * d) - 1) / (4 * d)) in
      let next = Atomic.make 0 in
      let worker () =
        let continue = ref true in
        while !continue do
          let lo = Atomic.fetch_and_add next chunk in
          if lo >= tasks then continue := false
          else
            for i = lo to min tasks (lo + chunk) - 1 do
              exec i
            done
        done
      in
      let workers = Array.init (d - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join workers
    end;
    Array.map
      (function Some r -> r | None -> assert false (* every slot filled *))
      results
  end

let errors_of results =
  Array.to_list results
  |> List.filter_map (function Error e -> Some e | Ok _ -> None)

let force ?(from = 0) results =
  match errors_of results with
  | [] -> Array.map (function Ok v -> v | Error _ -> assert false) results
  | errors ->
    raise
      (Task_failed (List.map (fun e -> { e with task = from + e.task }) errors))

(* The batch size is a constant, not a function of the domain count: the
   fold order is task order either way, so the result is byte-identical
   at any [domains]; the batch only bounds how many results are live at
   once, and a barrier every 32 tasks still keeps every domain fed. One
   domain has nothing to feed, so it folds every task as soon as it
   returns and holds one result at a time. *)
let batch_size = 32

let fold t ~tasks f ~init step =
  if tasks < 0 then invalid_arg "Pool.fold: negative task count";
  let batch = if t.domains = 1 then 1 else batch_size in
  let rec go acc from =
    if from >= tasks then acc
    else
      let count = min batch (tasks - from) in
      let results = run t ~tasks:count (fun i -> f (from + i)) in
      go (Array.fold_left step acc (force ~from results)) (from + count)
  in
  go init 0

let try_map t xs f = run t ~tasks:(Array.length xs) (fun i -> f xs.(i))
let map t xs f = force (try_map t xs f)
