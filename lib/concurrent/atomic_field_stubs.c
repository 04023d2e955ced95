/* Atomic operations on one field of an OCaml block (Atomic_field). */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/memory.h>

/* Through the runtime's own CAS, which applies the write barrier of
   every heap store: a young value CASed into a promoted block enters
   the remembered set, so the next minor collection keeps it alive and
   updates the field; the value it replaces is darkened while the major
   GC marks. A raw C11 CAS here would leave a promoted field pointing
   into a minor heap that no longer holds its block. */
value mvkv_atomic_cas_field(value obj, value field, value seen, value v)
{
  return Val_bool(caml_atomic_cas_field(obj, Long_val(field), seen, v));
}

/* An immediate int is no pointer, so it needs no barrier: adding
   2 * incr to the tagged word adds incr to the int it encodes. */
value mvkv_atomic_fetch_add_field(value obj, value field, value incr)
{
  atomic_value *p = &Op_atomic_val(obj)[Long_val(field)];
  return atomic_fetch_add(p, 2 * Long_val(incr));
}

/* Sequentially consistent, as Atomic.get and Atomic.set are: a store
   then a load of another cell by each of two domains cannot both miss
   the other's store. An immediate int needs no write barrier. */
value mvkv_atomic_load_int_field(value obj, value field)
{
  return atomic_load(&Op_atomic_val(obj)[Long_val(field)]);
}

value mvkv_atomic_store_int_field(value obj, value field, value v)
{
  atomic_store(&Op_atomic_val(obj)[Long_val(field)], v);
  return Val_unit;
}
