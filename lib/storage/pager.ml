exception Crash

type t = {
  fd : Unix.file_descr;
  mutable pages : int;
  mutable closed : bool;
  mutable fault : int option;  (* byte budget before the injected crash *)
  mutable bytes_written : int;
  mutable metrics : Gql_obs.Metrics.t;
}

let page_size = 4096

let create path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  {
    fd;
    pages = 0;
    closed = false;
    fault = None;
    bytes_written = 0;
    metrics = Gql_obs.Metrics.disabled;
  }

let open_existing ?(allow_torn_tail = false) path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  if size mod page_size <> 0 && not allow_torn_tail then begin
    Unix.close fd;
    failwith (Printf.sprintf "Pager.open_existing: %s is not page aligned" path)
  end;
  (* torn tail: the partial page at the end (left by a crashed append)
     is invisible — only whole pages are addressable *)
  {
    fd;
    pages = size / page_size;
    closed = false;
    fault = None;
    bytes_written = 0;
    metrics = Gql_obs.Metrics.disabled;
  }

let set_metrics t m = t.metrics <- m

let check t = if t.closed then invalid_arg "Pager: already closed"

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end

let n_pages t = t.pages

let set_fault t ~after_bytes =
  if after_bytes < 0 then invalid_arg "Pager.set_fault: negative budget";
  t.fault <- Some after_bytes

let bytes_written t = t.bytes_written

let write_all t buf off len =
  let written = ref 0 in
  while !written < len do
    let n = Unix.write t.fd buf (off + !written) (len - !written) in
    if n = 0 then failwith "Pager: short write";
    written := !written + n
  done;
  t.bytes_written <- t.bytes_written + len

(* The fault-injection point: every page write spends page_size bytes of
   the budget. When the budget runs out mid-page the prefix is written
   (a torn page, exactly what a power cut leaves behind) and [Crash] is
   raised; every subsequent write crashes immediately — a dead machine
   stays dead. *)
let pwrite t page buf =
  let module M = Gql_obs.Metrics in
  if M.enabled t.metrics then M.incr t.metrics M.Pages_written;
  ignore (Unix.lseek t.fd (page * page_size) Unix.SEEK_SET);
  match t.fault with
  | None -> write_all t buf 0 page_size
  | Some budget ->
    if budget >= page_size then begin
      t.fault <- Some (budget - page_size);
      write_all t buf 0 page_size
    end
    else begin
      t.fault <- Some 0;
      if budget > 0 then write_all t buf 0 budget;
      raise Crash
    end

let alloc t =
  check t;
  let id = t.pages in
  pwrite t id (Bytes.make page_size '\000');
  t.pages <- id + 1;
  id

let read t page =
  check t;
  if page < 0 || page >= t.pages then invalid_arg "Pager.read: page out of range";
  let module M = Gql_obs.Metrics in
  if M.enabled t.metrics then M.incr t.metrics M.Pages_read;
  ignore (Unix.lseek t.fd (page * page_size) Unix.SEEK_SET);
  let buf = Bytes.make page_size '\000' in
  let rec fill off =
    if off < page_size then begin
      let n = Unix.read t.fd buf off (page_size - off) in
      if n = 0 then failwith "Pager: short read" else fill (off + n)
    end
  in
  fill 0;
  buf

let write t page buf =
  check t;
  if Bytes.length buf <> page_size then invalid_arg "Pager.write: bad buffer size";
  if page < 0 || page >= t.pages then invalid_arg "Pager.write: page out of range";
  pwrite t page buf

let sync t =
  check t;
  Unix.fsync t.fd
