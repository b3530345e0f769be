/* poll(2) binding for Evloop.

   select(2) tops out at FD_SETSIZE (1024) descriptors — one fd past
   that and fd_set construction is undefined behaviour.  A hub hosting
   thousands of member connections, or an editor dialing out from a
   process that already holds that many files, needs poll, which takes
   an explicit array and has no such cliff.

   The pollfd array is built in C-heap memory (not the OCaml heap)
   because the runtime lock is released around the poll call and a
   concurrent GC may move OCaml blocks while we sleep. */

#include <errno.h>
#include <poll.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* event/revent bits shared with evloop.ml */
#define DCE_RD 1
#define DCE_WR 2

CAMLprim value dce_evloop_poll(value v_fds, value v_events, value v_revents,
                               value v_timeout_ms)
{
  CAMLparam4(v_fds, v_events, v_revents, v_timeout_ms);
  mlsize_t n = Wosize_val(v_fds);
  int timeout = Int_val(v_timeout_ms);
  struct pollfd *pfds = NULL;
  if (n > 0) {
    pfds = calloc(n, sizeof *pfds);
    if (pfds == NULL) caml_failwith("evloop: out of memory");
  }
  for (mlsize_t i = 0; i < n; i++) {
    int ev = Int_val(Field(v_events, i));
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = (short)(((ev & DCE_RD) ? POLLIN : 0) |
                             ((ev & DCE_WR) ? POLLOUT : 0));
  }
  caml_enter_blocking_section();
  int r = poll(pfds, (nfds_t)n, timeout);
  int saved_errno = errno;
  caml_leave_blocking_section();
  if (r < 0) {
    free(pfds);
    if (saved_errno == EINTR)
      CAMLreturn(Val_int(0)); /* spurious wakeup; the caller re-polls */
    char msg[128];
    snprintf(msg, sizeof msg, "evloop: poll: %s", strerror(saved_errno));
    caml_failwith(msg);
  }
  /* POLLHUP/POLLERR/POLLNVAL surface as readiness on whatever the
     caller asked for: the read/write handler then hits EOF or EPIPE and
     moves the connection to its closed state. */
  for (mlsize_t i = 0; i < n; i++) {
    short re = pfds[i].revents;
    int out = 0;
    if (re & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) out |= DCE_RD;
    if (re & (POLLOUT | POLLHUP | POLLERR | POLLNVAL)) out |= DCE_WR;
    Field(v_revents, i) = Val_int(out);
  }
  free(pfds);
  CAMLreturn(Val_int(r));
}
