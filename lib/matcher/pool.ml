(* A process-wide pool of parked helper domains.

   Each helper owns a condition variable and blocks on it while it has
   no work. [run] hands each of its calls 1..n-1 to a parked helper, or
   starts a new domain for it when none is parked, so the pool never
   holds more helpers than were ever busy at once. One mutex guards the
   parked list, every helper's slot and every batch's counter. A helper
   parks itself again {e before} it counts its call finished, in the
   same critical section: the caller of [run] wakes only once all of
   its helpers are back on the list, so its next [run] reuses them. *)

type batch = { mutable running : int; finished : Condition.t }

type helper = {
  wake : Condition.t;
  mutable task : ((unit -> unit) * batch) option;
}

let mutex = Mutex.create ()
let parked : helper list ref = ref []
let started = ref 0

let helpers () = Mutex.protect mutex (fun () -> !started)

(* the helper's whole life: wait for a task, run it off the lock, park,
   report. [work] never raises ([run] captures every outcome). *)
let serve h () =
  Mutex.lock mutex;
  while true do
    match h.task with
    | None -> Condition.wait h.wake mutex
    | Some (work, b) ->
      h.task <- None;
      Mutex.unlock mutex;
      work ();
      Mutex.lock mutex;
      parked := h :: !parked;
      b.running <- b.running - 1;
      if b.running = 0 then Condition.signal b.finished
  done

(* under the mutex *)
let dispatch b work =
  match !parked with
  | h :: rest ->
    parked := rest;
    h.task <- Some (work, b);
    Condition.signal h.wake
  | [] ->
    let h = { wake = Condition.create (); task = Some (work, b) } in
    ignore (Domain.spawn (serve h));
    incr started

let run n f =
  if n < 1 then invalid_arg "Pool.run: n < 1";
  let results = Array.make n None in
  let settle i r = results.(i) <- Some r in
  let call i () =
    settle i
      (match f i with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  let b = { running = n - 1; finished = Condition.create () } in
  Mutex.protect mutex (fun () ->
      for i = 1 to n - 1 do
        match dispatch b (call i) with
        | () -> ()
        | exception e ->
          (* no domain to run it (the runtime's domain limit): the call
             fails like a worker that raised *)
          settle i (Error (e, Printexc.get_raw_backtrace ()));
          b.running <- b.running - 1
      done);
  call 0 ();
  Mutex.protect mutex (fun () ->
      while b.running > 0 do
        Condition.wait b.finished mutex
      done);
  Array.map Option.get results
