(* key -> holder -> grants it holds under key.  A key's inner table is
   kept once empty: keys are cores or vectors, a bounded set, so the
   table does not grow with churn while each holder's entry goes with
   its last grant. *)
type t = (int, (int, int) Hashtbl.t) Hashtbl.t

let create () = Hashtbl.create 16

let add t ~key ~holder =
  let counts =
    match Hashtbl.find_opt t key with
    | Some c -> c
    | None ->
        let c = Hashtbl.create 4 in
        Hashtbl.replace t key c;
        c
  in
  Hashtbl.replace counts holder
    (1 + Option.value ~default:0 (Hashtbl.find_opt counts holder))

let remove t ~key ~holder =
  match Hashtbl.find_opt t key with
  | None -> ()
  | Some counts -> (
      match Hashtbl.find_opt counts holder with
      | None -> ()
      | Some 1 -> Hashtbl.remove counts holder
      | Some n -> Hashtbl.replace counts holder (n - 1))

let holders t ~keys =
  List.fold_left
    (fun acc key ->
      match Hashtbl.find_opt t key with
      | None -> acc
      | Some counts -> Hashtbl.fold (fun h _ acc -> h :: acc) counts acc)
    [] keys
  |> List.sort_uniq (fun a b -> Int.compare b a)
