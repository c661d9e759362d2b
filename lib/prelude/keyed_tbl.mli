(** Hashtables keyed by ints and int tuples, with monomorphic equality.

    A key lookup in a generic [Hashtbl] compares keys with the
    polymorphic [compare] ([compare_val] in the runtime), which walks a
    tuple key field by field through tag dispatch; these tables compare
    with [Int.equal] on each component instead. Each table hashes with
    [Hashtbl.hash], exactly the function a generic (non-randomised)
    [Hashtbl] applies to the same key, and [Hashtbl.Make] shares the
    generic table's bucket, insert and resize code: under the same
    sequence of [add]/[replace]/[remove]/[reset] calls, a table here
    holds every binding in the same bucket position as a generic
    [Hashtbl] would, so [iter] and [fold] visit bindings in the same
    order. Simulation code that iterates a table can switch to these
    without reordering anything it does. *)

module Int : Hashtbl.S with type key = int
module Int2 : Hashtbl.S with type key = int * int
module Int3 : Hashtbl.S with type key = int * int * int
