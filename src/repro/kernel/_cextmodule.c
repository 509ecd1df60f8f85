/* Compiled booking-loop engine for the flat scheduling kernel.
 *
 * A hand-written CPython extension (no Cython/mypyc dependency): the
 * hot sequential path of the flat construction kernel — gap search,
 * trial/commit/undo booking primitives, the one-port booker's
 * trial_est/commit_est (including the per-edge send-feasibility seed
 * memo), the all-processor candidate sweep with its
 * maxpf/frontier/in-trial pruning, whole lists of sweep-and-commit
 * (Engine.run_list), and the placement and transfer logs a schedule
 * is built from (Engine.records) — transliterated from
 * kernel/builder.py, models/one_port.py, models/base.py,
 * models/macro_dataflow.py and heuristics/base.py; plus the timed
 * kernel's two passes from kernel/timed.py: the one-shot forward pass
 * (TimedKernel.propagate_kahn, behind replay, plan install and online
 * re-prediction) and the point sweep (TimedKernel._point_loop, behind
 * the search evaluator's loads, previews and commits); plus records(),
 * which builds replay's output tuples.
 *
 * Bit-identity contract: every float computation below performs the
 * SAME IEEE-754 double operations in the SAME order as the Python
 * source it mirrors (CPython floats are C doubles), so schedules and
 * propagated times are bit-identical to the pure-Python reference.
 * When editing, change the Python reference first, then mirror it
 * here — never "optimize" an expression into a different association.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <string.h>

/* Exception types injected from repro.core.exceptions at import time
 * (cext_backend calls _set_exceptions); RuntimeError until then. */
static PyObject *SchedulingErr = NULL;
static PyObject *TimelineErr = NULL;
static PyObject *PlatformErr = NULL;

#define SCHED_ERR (SchedulingErr ? SchedulingErr : PyExc_RuntimeError)
#define TIMELINE_ERR (TimelineErr ? TimelineErr : PyExc_RuntimeError)
#define PLATFORM_ERR (PlatformErr ? PlatformErr : PyExc_RuntimeError)

/* guard_tol(a, b) from core/tolerance.py: GUARD_FACTOR * (TIME_EPS *
 * scale) with scale = max(1, |a|, |b|) — same operation order. */
static inline double
guard_tol2(double a, double b)
{
    double scale = 1.0;
    double v = fabs(a);
    if (v > scale) scale = v;
    v = fabs(b);
    if (v > scale) scale = v;
    return 1e-3 * (1e-6 * scale);
}

/* bisect.bisect_right over a sorted double array. */
static inline Py_ssize_t
bisect_right_d(const double *a, Py_ssize_t n, double x)
{
    Py_ssize_t lo = 0, hi = n;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        if (x < a[mid]) hi = mid; else lo = mid + 1;
    }
    return lo;
}

/* ------------------------------------------------------------------ */
/* growable interval rows                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    double *s;
    double *e;
    Py_ssize_t len;
    Py_ssize_t cap;
} Row;

/* tentative layer: a Row plus its generation stamp */
typedef struct {
    double *s;
    double *e;
    Py_ssize_t len;
    Py_ssize_t cap;
    long long gen;
} TRow;

static int
row_reserve(double **s, double **e, Py_ssize_t len, Py_ssize_t *cap)
{
    if (len < *cap)
        return 0;
    Py_ssize_t nc = *cap ? *cap * 2 : 8;
    double *ns = PyMem_Realloc(*s, (size_t)nc * sizeof(double));
    if (ns == NULL) { PyErr_NoMemory(); return -1; }
    *s = ns;
    double *ne = PyMem_Realloc(*e, (size_t)nc * sizeof(double));
    if (ne == NULL) { PyErr_NoMemory(); return -1; }
    *e = ne;
    *cap = nc;
    return 0;
}

static int
row_insert(Row *r, Py_ssize_t pos, double start, double end)
{
    if (row_reserve(&r->s, &r->e, r->len, &r->cap) < 0)
        return -1;
    memmove(r->s + pos + 1, r->s + pos, (size_t)(r->len - pos) * sizeof(double));
    memmove(r->e + pos + 1, r->e + pos, (size_t)(r->len - pos) * sizeof(double));
    r->s[pos] = start;
    r->e[pos] = end;
    r->len++;
    return 0;
}

static int
trow_insert(TRow *t, Py_ssize_t pos, double start, double end)
{
    if (row_reserve(&t->s, &t->e, t->len, &t->cap) < 0)
        return -1;
    memmove(t->s + pos + 1, t->s + pos, (size_t)(t->len - pos) * sizeof(double));
    memmove(t->e + pos + 1, t->e + pos, (size_t)(t->len - pos) * sizeof(double));
    t->s[pos] = start;
    t->e[pos] = end;
    t->len++;
    return 0;
}

/* row_next_fit from kernel/builder.py: earliest t >= ready with
 * [t, t + duration) free in one sorted interval layer. */
static double
row_next_fit_c(const double *cs, const double *ce, Py_ssize_t n,
               double ready, double duration)
{
    if (duration == 0.0)
        return ready;
    if (n == 0 || ce[n - 1] <= ready)
        return ready;
    double t = ready;
    Py_ssize_t i = bisect_right_d(cs, n, t) - 1;
    if (i >= 0 && ce[i] > t)
        t = ce[i];
    i += 1;
    double lim = t + duration;
    while (i < n && cs[i] < lim) {
        if (ce[i] > t) {
            t = ce[i];
            lim = t + duration;
        }
        i++;
    }
    return t;
}

/* ------------------------------------------------------------------ */
/* Statics: immutable marshaled view of KernelStatics                 */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    Py_ssize_t n;          /* tasks */
    Py_ssize_t m;          /* edges */
    Py_ssize_t p;          /* processors */
    double *exec_;         /* n*p row-major */
    double *edata;         /* m */
    Py_ssize_t *esrc;      /* m */
    Py_ssize_t *pred_ptr;  /* n+1 */
    Py_ssize_t *pred_eix;  /* m */
    double *links;         /* p*p row-major */
    int all_links_finite;
} StaticsObject;

static int
fill_doubles(PyObject *seq, double *out, Py_ssize_t want, const char *name)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n != want) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s: expected %zd items, got %zd",
                     name, want, n);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        double v = PyFloat_AsDouble(items[i]);
        if (v == -1.0 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        out[i] = v;
    }
    Py_DECREF(fast);
    return 0;
}

static int
fill_ssizes(PyObject *seq, Py_ssize_t *out, Py_ssize_t want, const char *name)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n != want) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s: expected %zd items, got %zd",
                     name, want, n);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t v = PyNumber_AsSsize_t(items[i], PyExc_OverflowError);
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        out[i] = v;
    }
    Py_DECREF(fast);
    return 0;
}

static void
Statics_dealloc(StaticsObject *self)
{
    PyMem_Free(self->exec_);
    PyMem_Free(self->edata);
    PyMem_Free(self->esrc);
    PyMem_Free(self->pred_ptr);
    PyMem_Free(self->pred_eix);
    PyMem_Free(self->links);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Statics_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Py_ssize_t n, m, p;
    PyObject *exec_o, *edata_o, *esrc_o, *pptr_o, *peix_o, *links_o;
    int finite;
    if (!PyArg_ParseTuple(args, "nnnOOOOOOp:Statics", &n, &m, &p, &exec_o,
                          &edata_o, &esrc_o, &pptr_o, &peix_o, &links_o,
                          &finite))
        return NULL;
    if (n < 0 || m < 0 || p < 1) {
        PyErr_SetString(PyExc_ValueError, "bad statics dimensions");
        return NULL;
    }
    StaticsObject *self = (StaticsObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->n = n;
    self->m = m;
    self->p = p;
    self->all_links_finite = finite;
    Py_ssize_t np_cells = n * p;
    self->exec_ = PyMem_Malloc((size_t)(np_cells ? np_cells : 1) * sizeof(double));
    self->edata = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(double));
    self->esrc = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(Py_ssize_t));
    self->pred_ptr = PyMem_Malloc((size_t)(n + 1) * sizeof(Py_ssize_t));
    self->pred_eix = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(Py_ssize_t));
    self->links = PyMem_Malloc((size_t)(p * p) * sizeof(double));
    if (!self->exec_ || !self->edata || !self->esrc || !self->pred_ptr ||
        !self->pred_eix || !self->links) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    if (fill_doubles(exec_o, self->exec_, n * p, "exec") < 0 ||
        fill_doubles(edata_o, self->edata, m, "edata") < 0 ||
        fill_ssizes(esrc_o, self->esrc, m, "esrc") < 0 ||
        fill_ssizes(pptr_o, self->pred_ptr, n + 1, "pred_ptr") < 0 ||
        fill_ssizes(peix_o, self->pred_eix, m, "pred_eix") < 0 ||
        fill_doubles(links_o, self->links, p * p, "links") < 0) {
        Py_DECREF(self);
        return NULL;
    }
    /* bounds-check the index arrays once so the hot loops need not */
    for (Py_ssize_t e = 0; e < m; e++) {
        if (self->esrc[e] < 0 || self->esrc[e] >= n) {
            Py_DECREF(self);
            PyErr_SetString(PyExc_ValueError, "esrc out of range");
            return NULL;
        }
    }
    for (Py_ssize_t i = 0; i <= n; i++) {
        if (self->pred_ptr[i] < 0 || self->pred_ptr[i] > m ||
            (i && self->pred_ptr[i] < self->pred_ptr[i - 1])) {
            Py_DECREF(self);
            PyErr_SetString(PyExc_ValueError, "pred_ptr not monotone");
            return NULL;
        }
    }
    for (Py_ssize_t k = 0; k < m; k++) {
        if (self->pred_eix[k] < 0 || self->pred_eix[k] >= m) {
            Py_DECREF(self);
            PyErr_SetString(PyExc_ValueError, "pred_eix out of range");
            return NULL;
        }
    }
    return (PyObject *)self;
}

/* out arrays: None, or a list of exactly size entries */
static int
check_out(PyObject *o, Py_ssize_t size, const char *name)
{
    if (o == Py_None)
        return 0;
    if (!PyList_Check(o)) {
        PyErr_Format(PyExc_TypeError, "%s must be a list, not %.100s", name,
                     Py_TYPE(o)->tp_name);
        return -1;
    }
    if (PyList_GET_SIZE(o) != size) {
        PyErr_Format(PyExc_ValueError, "%s has %zd entries, expected %zd",
                     name, PyList_GET_SIZE(o), size);
        return -1;
    }
    return 0;
}

/* PyList_SetItem steals f and re-checks the bounds: a replaced item's
 * finalizer may have shrunk the list. */
static inline int
set_float(PyObject *list, Py_ssize_t i, double v)
{
    PyObject *f = PyFloat_FromDouble(v);
    if (f == NULL)
        return -1;
    return PyList_SetItem(list, i, f);
}

static inline int
set_index(PyObject *list, Py_ssize_t i, Py_ssize_t v)
{
    PyObject *o = PyLong_FromSsize_t(v);
    if (o == NULL)
        return -1;
    return PyList_SetItem(list, i, o);
}

/* A field the cyclic collector could reach a cycle through: CPython's
 * own test when it untracks a tuple (_PyObject_GC_MAY_BE_TRACKED). */
static inline int
may_be_tracked(PyObject *x)
{
    return PyObject_IS_GC(x) && (!PyTuple_CheckExact(x) || PyObject_GC_IsTracked(x));
}

/* records() and Engine.records() build tuple subclasses without
 * instance slots (TaskPlacement, CommEvent) as tuple.__new__ does */
static int
check_record_cls(PyTypeObject *cls)
{
    if (!PyType_IsSubtype(cls, &PyTuple_Type) ||
        cls->tp_basicsize != PyTuple_Type.tp_basicsize || cls->tp_dictoffset != 0) {
        PyErr_Format(PyExc_TypeError,
                     "records: %s is not a tuple subclass without instance slots",
                     cls->tp_name);
        return -1;
    }
    return 0;
}

/* tuple.__new__(cls, fields[0..n)): a record none of whose fields may be
 * tracked (task ids, processor indices, times) can never be on a
 * reference cycle, so it is left untracked -- what CPython does for a
 * plain tuple at its first collection but never for a subclass.
 * Tracked, each record alive at a generation-1 collection is promoted
 * and counts toward the next full collection. */
static PyObject *
new_record(PyTypeObject *cls, PyObject *const *fields, Py_ssize_t n)
{
    PyObject *rec = cls->tp_alloc(cls, n);
    if (rec == NULL)
        return NULL;
    int leaf = 1;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *x = fields[k];
        Py_INCREF(x);
        PyTuple_SET_ITEM(rec, k, x);
        if (leaf && may_be_tracked(x))
            leaf = 0;
    }
    if (leaf)
        PyObject_GC_UnTrack(rec);
    return rec;
}

/* point_pass(alloc, seq, start, finish, tight) -> (makespan, timed):
 * TimedKernel._point_loop over a search point's interned allocation
 * and global sequence.
 *
 * For each task v in seq, on q = alloc[v]: first v's remote in-edges
 * in increasing source position, each at the max of 0.0, its source's
 * finish and the last transfers timed on the source's send port and
 * on q's receive port; then v, at the max of 0.0, each in-edge's
 * predecessor (the source if local, the transfer if remote) and the
 * last task timed on q.  Same operands, same > max from 0.0 and same
 * single addition as the Python reference; tight is each node's first
 * maximal predecessor in the same canonical order.  Validation follows
 * the reference's order (out lists, alloc, seq, links) and finishes
 * before anything is written: the sweep runs on C scratch, and the
 * live nodes are copied to the out lists at the end. */
static PyObject *
Statics_point_pass(StaticsObject *self, PyObject *args)
{
    PyObject *alloc_o, *seq_o, *start, *finish, *tight;
    if (!PyArg_ParseTuple(args, "OOOOO:point_pass", &alloc_o, &seq_o, &start,
                          &finish, &tight))
        return NULL;
    const Py_ssize_t n = self->n, m = self->m, p = self->p, size = n + m;
    if (check_out(start, size, "start") < 0 ||
        check_out(finish, size, "finish") < 0 ||
        check_out(tight, size, "tight") < 0)
        return NULL;
    /* int scratch: alloc, seq, pos (n each); the last task / send /
     * receive per processor (p each); one task's remote in-edges and
     * the timed transfer slots (m each); tight (size).  double
     * scratch: start and finish (size each). */
    Py_ssize_t *ib = PyMem_Malloc((size_t)(3 * n + 3 * p + 2 * m + size + 1) *
                                  sizeof(Py_ssize_t));
    double *db = PyMem_Malloc((size_t)(2 * size + 1) * sizeof(double));
    PyObject *res = NULL;
    if (ib == NULL || db == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t *alloc = ib, *seq = alloc + n, *pos = seq + n;
    Py_ssize_t *proc_last = pos + n, *send_last = proc_last + p;
    Py_ssize_t *recv_last = send_last + p, *buf = recv_last + p;
    Py_ssize_t *slots = buf + m, *tt = slots + m;
    double *ss = db, *ff = db + size;
    const Py_ssize_t *pred_ptr = self->pred_ptr, *pred_eix = self->pred_eix;
    const Py_ssize_t *esrc = self->esrc;
    const double *links = self->links;

    if (fill_ssizes(alloc_o, alloc, n, "alloc") < 0)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (alloc[i] < 0 || alloc[i] >= p) {
            PyErr_Format(PLATFORM_ERR, "processor index %zd out of range [0, %zd)",
                         alloc[i], p);
            goto done;
        }
    }
    if (fill_ssizes(seq_o, seq, n, "seq") < 0)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++)
        pos[i] = -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t v = seq[i];
        if (v < 0 || v >= n || pos[v] >= 0) {
            PyErr_SetString(SCHED_ERR, "sequence is not a permutation of the tasks");
            goto done;
        }
        pos[v] = i;
    }
    for (Py_ssize_t v = 0; v < n; v++) {
        for (Py_ssize_t k = pred_ptr[v]; k < pred_ptr[v + 1]; k++) {
            if (pos[esrc[pred_eix[k]]] >= pos[v]) {
                PyErr_SetString(SCHED_ERR, "sequence is not a topological order");
                goto done;
            }
        }
    }
    if (!self->all_links_finite) {
        for (Py_ssize_t v = 0; v < n; v++) {
            Py_ssize_t b = alloc[v];
            for (Py_ssize_t k = pred_ptr[v]; k < pred_ptr[v + 1]; k++) {
                Py_ssize_t a = alloc[esrc[pred_eix[k]]];
                if (a != b && !isfinite(links[a * p + b])) {
                    PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd", a, b);
                    goto done;
                }
            }
        }
    }

    for (Py_ssize_t r = 0; r < p; r++)
        proc_last[r] = send_last[r] = recv_last[r] = -1;
    Py_ssize_t timed = n, nslots = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        const Py_ssize_t v = seq[i], q = alloc[v];
        const Py_ssize_t k0 = pred_ptr[v], k1 = pred_ptr[v + 1];
        /* remote in-edges, insertion-sorted by source position */
        Py_ssize_t nr = 0;
        for (Py_ssize_t k = k0; k < k1; k++) {
            Py_ssize_t e = pred_eix[k];
            if (alloc[esrc[e]] == q)
                continue;
            Py_ssize_t ps = pos[esrc[e]], j = nr++;
            while (j > 0 && pos[esrc[buf[j - 1]]] > ps) {
                buf[j] = buf[j - 1];
                j--;
            }
            buf[j] = e;
        }
        for (Py_ssize_t j = 0; j < nr; j++) {
            const Py_ssize_t e = buf[j], u = esrc[e], a = alloc[u], node = n + e;
            Py_ssize_t t = u;
            double tf = ff[u], s = 0.0;
            if (tf > s)
                s = tf;
            Py_ssize_t last = send_last[a];
            if (last >= 0) {
                double f = ff[last];
                if (f > s)
                    s = f;
                if (f > tf) {
                    t = last;
                    tf = f;
                }
            }
            last = recv_last[q];
            if (last >= 0) {
                double f = ff[last];
                if (f > s)
                    s = f;
                if (f > tf) {
                    t = last;
                    tf = f;
                }
            }
            double d = self->edata[e] * links[a * p + q];
            ss[node] = s;
            ff[node] = s + d;
            tt[node] = t;
            send_last[a] = recv_last[q] = node;
            slots[nslots++] = node;
        }
        timed += nr;
        Py_ssize_t t = -1;
        double tf = 0.0, s = 0.0;
        for (Py_ssize_t k = k0; k < k1; k++) {
            Py_ssize_t e = pred_eix[k], u = esrc[e];
            Py_ssize_t pn = alloc[u] == q ? u : n + e;
            double f = ff[pn];
            if (f > s)
                s = f;
            if (t < 0 || f > tf) {
                t = pn;
                tf = f;
            }
        }
        Py_ssize_t last = proc_last[q];
        if (last >= 0) {
            double f = ff[last];
            if (f > s)
                s = f;
            if (t < 0 || f > tf)
                t = last;
        }
        ss[v] = s;
        ff[v] = s + self->exec_[v * p + q];
        tt[v] = t;
        proc_last[q] = v;
    }
    /* max(finish[:n], default=0.0): first element, then strictly greater */
    double ms = 0.0;
    if (n) {
        ms = ff[0];
        for (Py_ssize_t i = 1; i < n; i++)
            if (ff[i] > ms)
                ms = ff[i];
    }

    if (start == Py_None)
        start = NULL;
    if (finish == Py_None)
        finish = NULL;
    if (tight == Py_None)
        tight = NULL;
    if (start || finish || tight) {
        for (Py_ssize_t j = -n; j < nslots; j++) {
            Py_ssize_t node = j < 0 ? j + n : slots[j];
            if ((start && set_float(start, node, ss[node]) < 0) ||
                (finish && set_float(finish, node, ff[node]) < 0) ||
                (tight && set_index(tight, node, tt[node]) < 0))
                goto done;
        }
    }
    res = Py_BuildValue("(dn)", ms, timed);

done:
    PyMem_Free(ib);
    PyMem_Free(db);
    return res;
}

static PyMethodDef Statics_methods[] = {
    {"point_pass", (PyCFunction)Statics_point_pass, METH_VARARGS, NULL},
    {NULL}
};

static PyMemberDef Statics_members[] = {
    {"num_tasks", T_PYSSIZET, offsetof(StaticsObject, n), READONLY, NULL},
    {"num_edges", T_PYSSIZET, offsetof(StaticsObject, m), READONLY, NULL},
    {"num_procs", T_PYSSIZET, offsetof(StaticsObject, p), READONLY, NULL},
    {NULL}
};

static PyTypeObject Statics_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._cext.Statics",
    .tp_basicsize = sizeof(StaticsObject),
    .tp_dealloc = (destructor)Statics_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Immutable flat statics marshaled from KernelStatics.",
    .tp_members = Statics_members,
    .tp_methods = Statics_methods,
    .tp_new = Statics_new,
};

/* ------------------------------------------------------------------ */
/* Engine: mutable booking state of one scheduling run                */
/* ------------------------------------------------------------------ */

/* model codes (mirrors cext_backend._MODEL_CODES) */
#define MODEL_MACRO 0
#define MODEL_ONE_PORT 1
#define MODEL_UNI_PORT 2
#define MODEL_NO_OVERLAP 3

/* one resolved parent row: (finish, parent_ix, edge_ix, parent_proc) */
typedef struct {
    double fin;
    Py_ssize_t pi;
    Py_ssize_t e;
    Py_ssize_t pp;
} PRow;

typedef struct {
    Py_ssize_t r;
    Py_ssize_t pos;
} UndoRec;

/* one booked transfer: edge, source processor, start, duration, and
 * the consuming task, whose placement is the destination processor */
typedef struct {
    Py_ssize_t e;
    Py_ssize_t q;
    double t;
    double dur;
    Py_ssize_t ti;
} EvRec;

typedef struct {
    PyObject_HEAD
    StaticsObject *st;
    int model;
    Py_ssize_t num_rows;
    Py_ssize_t send0;      /* one-port / no-overlap */
    Py_ssize_t recv0;
    Py_ssize_t port0;      /* uni-port */
    Row *rows;
    TRow *tent;
    long long *row_ver;    /* per-row mutation epoch */
    long long gen;
    long long commit_count;
    /* undo journal (FlatBuilder.log); active while mark_depth > 0 */
    UndoRec *log;
    Py_ssize_t log_len, log_cap;
    Py_ssize_t mark_depth;
    /* placement log (SchedulerState._place_log): tasks in commit order */
    Py_ssize_t *plog;
    Py_ssize_t plog_len, plog_cap;
    /* placements */
    Py_ssize_t *proc_a;    /* n, -1 = unplaced */
    double *start_a;
    double *finish_a;
    /* one-port per-edge seed memo: (send-row version, source proc,
     * ready, transfer duration, seed); ver < 0 = empty entry */
    long long *seed_ver;
    Py_ssize_t *seed_src;
    double *seed_ready;
    double *seed_dur;
    double *seed_t;
    /* event log (SchedulerState._ev_log): transfers in booking order */
    EvRec *ev;
    Py_ssize_t ev_len, ev_cap;
    /* scratch */
    PRow *par;
    Py_ssize_t par_cap;
    unsigned char *touched;  /* num_rows, rollback scratch */
    /* obs counters (drained by the Python wrapper when stats are on) */
    long long c_candidates;
    long long c_prune_maxpf;
    long long c_prune_frontier;
    long long c_prune_abort;
    long long c_seed_hit;
    long long c_seed_miss;
    long long c_commits;
    long long c_rollbacks;
    long long c_rollback_entries;
    /* drain_counters() snapshot, in the order of counter_names[] */
    long long c_snap[9];
} EngineObject;

static void
Engine_dealloc(EngineObject *self)
{
    if (self->rows) {
        for (Py_ssize_t r = 0; r < self->num_rows; r++) {
            PyMem_Free(self->rows[r].s);
            PyMem_Free(self->rows[r].e);
        }
        PyMem_Free(self->rows);
    }
    if (self->tent) {
        for (Py_ssize_t r = 0; r < self->num_rows; r++) {
            PyMem_Free(self->tent[r].s);
            PyMem_Free(self->tent[r].e);
        }
        PyMem_Free(self->tent);
    }
    PyMem_Free(self->row_ver);
    PyMem_Free(self->log);
    PyMem_Free(self->plog);
    PyMem_Free(self->proc_a);
    PyMem_Free(self->start_a);
    PyMem_Free(self->finish_a);
    PyMem_Free(self->seed_ver);
    PyMem_Free(self->seed_src);
    PyMem_Free(self->seed_ready);
    PyMem_Free(self->seed_dur);
    PyMem_Free(self->seed_t);
    PyMem_Free(self->par);
    PyMem_Free(self->ev);
    PyMem_Free(self->touched);
    Py_XDECREF(self->st);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* allocate the per-row / per-task / per-edge arrays of a blank engine */
static int
engine_alloc(EngineObject *self, StaticsObject *st, int model)
{
    Py_ssize_t p = st->p;
    Py_ssize_t nrows = p;
    self->send0 = self->recv0 = self->port0 = -1;
    switch (model) {
    case MODEL_MACRO:
        break;
    case MODEL_ONE_PORT:
    case MODEL_NO_OVERLAP:
        self->send0 = nrows; nrows += p;
        self->recv0 = nrows; nrows += p;
        break;
    case MODEL_UNI_PORT:
        self->port0 = nrows; nrows += p;
        break;
    default:
        PyErr_Format(PyExc_ValueError, "unknown model code %d", model);
        return -1;
    }
    self->model = model;
    self->num_rows = nrows;
    self->rows = PyMem_Calloc((size_t)nrows, sizeof(Row));
    self->tent = PyMem_Calloc((size_t)nrows, sizeof(TRow));
    self->row_ver = PyMem_Calloc((size_t)nrows, sizeof(long long));
    self->touched = PyMem_Calloc((size_t)nrows, 1);
    Py_ssize_t n = st->n ? st->n : 1;
    self->proc_a = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
    self->start_a = PyMem_Calloc((size_t)n, sizeof(double));
    self->finish_a = PyMem_Calloc((size_t)n, sizeof(double));
    Py_ssize_t m = st->m ? st->m : 1;
    self->seed_ver = PyMem_Malloc((size_t)m * sizeof(long long));
    self->seed_src = PyMem_Calloc((size_t)m, sizeof(Py_ssize_t));
    self->seed_ready = PyMem_Calloc((size_t)m, sizeof(double));
    self->seed_dur = PyMem_Calloc((size_t)m, sizeof(double));
    self->seed_t = PyMem_Calloc((size_t)m, sizeof(double));
    if (!self->rows || !self->tent || !self->row_ver ||
        !self->touched || !self->proc_a || !self->start_a ||
        !self->finish_a || !self->seed_ver || !self->seed_src ||
        !self->seed_ready || !self->seed_dur || !self->seed_t) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < st->n; i++)
        self->proc_a[i] = -1;
    for (Py_ssize_t e = 0; e < st->m; e++)
        self->seed_ver[e] = -1;
    self->gen = 1;
    self->commit_count = 0;
    self->mark_depth = 0;
    self->log_len = 0;
    self->plog_len = 0;
    self->ev_len = 0;
    Py_INCREF(st);
    self->st = st;
    return 0;
}

static PyObject *
Engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *st_o;
    int model;
    if (!PyArg_ParseTuple(args, "O!i:Engine", &Statics_Type, &st_o, &model))
        return NULL;
    EngineObject *self = (EngineObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    if (engine_alloc(self, (StaticsObject *)st_o, model) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

/* ------------------------------------------------------------------ */
/* committed / tentative booking primitives                           */
/* ------------------------------------------------------------------ */

static int
log_append(EngineObject *eg, Py_ssize_t r, Py_ssize_t pos)
{
    if (eg->log_len >= eg->log_cap) {
        Py_ssize_t nc = eg->log_cap ? eg->log_cap * 2 : 64;
        UndoRec *nl = PyMem_Realloc(eg->log, (size_t)nc * sizeof(UndoRec));
        if (nl == NULL) { PyErr_NoMemory(); return -1; }
        eg->log = nl;
        eg->log_cap = nc;
    }
    eg->log[eg->log_len].r = r;
    eg->log[eg->log_len].pos = pos;
    eg->log_len++;
    return 0;
}

/* FlatBuilder.book: commit [start, end) on row r with overlap guards */
static int
book_c(EngineObject *eg, Py_ssize_t r, double start, double end)
{
    if (end == start)
        return 0;
    Row *row = &eg->rows[r];
    Py_ssize_t pos = bisect_right_d(row->s, row->len, start);
    if (pos && row->e[pos - 1] > start) {
        if (row->e[pos - 1] > start + guard_tol2(start, row->e[pos - 1])) {
            char buf[160];
            snprintf(buf, sizeof(buf),
                     "row %zd: reservation [%.17g, %.17g) overlaps "
                     "[%.17g, %.17g)", r, start, end,
                     row->s[pos - 1], row->e[pos - 1]);
            PyErr_SetString(TIMELINE_ERR, buf);
            return -1;
        }
    }
    if (pos < row->len && row->s[pos] < end) {
        if (row->s[pos] < end - guard_tol2(end, row->s[pos])) {
            char buf[160];
            snprintf(buf, sizeof(buf),
                     "row %zd: reservation [%.17g, %.17g) overlaps "
                     "[%.17g, %.17g)", r, start, end,
                     row->s[pos], row->e[pos]);
            PyErr_SetString(TIMELINE_ERR, buf);
            return -1;
        }
    }
    if (row_insert(row, pos, start, end) < 0)
        return -1;
    eg->row_ver[r] += 1;
    eg->commit_count += 1;
    if (eg->mark_depth > 0 && log_append(eg, r, pos) < 0)
        return -1;
    return 0;
}

/* FlatBuilder.book_tentative (truncates a stale layer first) */
static int
book_tent_c(EngineObject *eg, Py_ssize_t r, double start, double end)
{
    if (end == start)
        return 0;
    TRow *tv = &eg->tent[r];
    if (tv->gen != eg->gen) {
        tv->len = 0;
        tv->gen = eg->gen;
    }
    Py_ssize_t pos = bisect_right_d(tv->s, tv->len, start);
    return trow_insert(tv, pos, start, end);
}

/* FlatBuilder.next_fit_layered: committed + live tentative layer */
static double
next_fit_layered_c(EngineObject *eg, Py_ssize_t r, double ready,
                   double duration)
{
    if (duration == 0.0)
        return ready;
    Row *c = &eg->rows[r];
    TRow *tv = &eg->tent[r];
    const double *ts, *te;
    Py_ssize_t tn;
    if (tv->gen != eg->gen) {
        ts = te = NULL;
        tn = 0;
    } else {
        ts = tv->s;
        te = tv->e;
        tn = tv->len;
    }
    double t = ready;
    for (;;) {
        double t1 = row_next_fit_c(c->s, c->e, c->len, t, duration);
        double t2 = row_next_fit_c(ts, te, tn, t1, duration);
        if (t2 == t1)
            return t1;
        t = t2;
    }
}

/* FlatBuilder.joint_next_fit over a small fixed row set */
static double
joint_next_fit_c(EngineObject *eg, const Py_ssize_t *rows, int nrows,
                 double ready, double duration)
{
    double t = ready;
    for (;;) {
        int moved = 0;
        for (int k = 0; k < nrows; k++) {
            double t2 = next_fit_layered_c(eg, rows[k], t, duration);
            if (t2 != t) {
                t = t2;
                moved = 1;
            }
        }
        if (!moved)
            return t;
    }
}

/* ------------------------------------------------------------------ */
/* parents resolution (SchedulerState._parents)                       */
/* ------------------------------------------------------------------ */

static int
cmp_prow(const void *a, const void *b)
{
    const PRow *x = (const PRow *)a;
    const PRow *y = (const PRow *)b;
    if (x->fin < y->fin) return -1;
    if (x->fin > y->fin) return 1;
    if (x->pi != y->pi) return x->pi < y->pi ? -1 : 1;
    if (x->e != y->e) return x->e < y->e ? -1 : 1;
    return 0;
}

/* Resolve ti's parent rows into eg->par, sorted by (finish, parent).
 * Returns the row count, or -1 with an exception set. */
static Py_ssize_t
resolve_parents(EngineObject *eg, Py_ssize_t ti)
{
    StaticsObject *st = eg->st;
    Py_ssize_t lo = st->pred_ptr[ti], hi = st->pred_ptr[ti + 1];
    Py_ssize_t count = hi - lo;
    if (count > eg->par_cap) {
        Py_ssize_t nc = count < 16 ? 16 : count;
        PRow *np_ = PyMem_Realloc(eg->par, (size_t)nc * sizeof(PRow));
        if (np_ == NULL) { PyErr_NoMemory(); return -1; }
        eg->par = np_;
        eg->par_cap = nc;
    }
    for (Py_ssize_t k = 0; k < count; k++) {
        Py_ssize_t e = st->pred_eix[lo + k];
        Py_ssize_t pi = st->esrc[e];
        Py_ssize_t pp = eg->proc_a[pi];
        if (pp < 0) {
            PyErr_Format(SCHED_ERR,
                         "task #%zd evaluated before its parent #%zd was "
                         "scheduled", ti, pi);
            return -1;
        }
        eg->par[k].fin = eg->finish_a[pi];
        eg->par[k].pi = pi;
        eg->par[k].e = e;
        eg->par[k].pp = pp;
    }
    if (count > 1)
        qsort(eg->par, (size_t)count, sizeof(PRow), cmp_prow);
    return count;
}

/* ------------------------------------------------------------------ */
/* model bookers: trial_est                                           */
/* ------------------------------------------------------------------ */

/* MacroDataflowFlatBooker.trial_est: pure arithmetic, no resources */
static double
macro_trial_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                Py_ssize_t proc, int *err)
{
    StaticsObject *st = eg->st;
    int check = !st->all_links_finite;
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double arr;
        if (par[j].pp == proc) {
            arr = par[j].fin;
        } else {
            double cost = st->links[par[j].pp * st->p + proc];
            if (check && !isfinite(cost)) {
                PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                             par[j].pp, proc);
                *err = 1;
                return 0.0;
            }
            arr = par[j].fin + st->edata[par[j].e] * cost;
        }
        if (arr > est)
            est = arr;
    }
    return est;
}

/* _JointRowsFlatBooker.trial_est for the single-hop chains of
 * uni-port / no-overlap (models/base.py, models/variants.py) */
static int
joint_rows_for(EngineObject *eg, Py_ssize_t q, Py_ssize_t r,
               Py_ssize_t *rows)
{
    if (eg->model == MODEL_UNI_PORT) {
        rows[0] = eg->port0 + q;
        rows[1] = eg->port0 + r;
        return 2;
    }
    /* no-overlap: send/recv ports plus both endpoints' compute rows */
    rows[0] = eg->send0 + q;
    rows[1] = eg->recv0 + r;
    rows[2] = q;
    rows[3] = r;
    return 4;
}

static double
joint_trial_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                Py_ssize_t proc, int *err)
{
    StaticsObject *st = eg->st;
    int check = !st->all_links_finite;
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double arr;
        Py_ssize_t pp = par[j].pp;
        if (pp == proc) {
            arr = par[j].fin;
        } else {
            double cost = st->links[pp * st->p + proc];
            if (check && !isfinite(cost)) {
                PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                             pp, proc);
                *err = 1;
                return 0.0;
            }
            double dur = st->edata[par[j].e] * cost;
            if (dur == 0.0) {
                arr = par[j].fin;
            } else {
                Py_ssize_t rows[4];
                int nrows = joint_rows_for(eg, pp, proc, rows);
                double start = joint_next_fit_c(eg, rows, nrows,
                                                par[j].fin, dur);
                double end = start + dur;
                for (int k = 0; k < nrows; k++) {
                    if (book_tent_c(eg, rows[k], start, end) < 0) {
                        *err = 1;
                        return 0.0;
                    }
                }
                arr = end;
            }
        }
        if (arr > est)
            est = arr;
    }
    return est;
}

/* OnePortFlatBooker.trial_est: 4-layer fixed point with scan cursors
 * and the per-edge send-feasibility seed memo.  A faithful
 * transliteration — see models/one_port.py for the commentary. */
static double
oneport_trial_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                  Py_ssize_t proc, double cutoff, double duration, int *err)
{
    StaticsObject *st = eg->st;
    long long gen = eg->gen;
    int check = !st->all_links_finite;
    Py_ssize_t rr = eg->recv0 + proc;
    Row *rrow = &eg->rows[rr];
    TRow *rtv = NULL;  /* recv tentative layer, live after first booking */
    Py_ssize_t last_remote = -1;
    for (Py_ssize_t j = np_ - 1; j >= 0; j--) {
        if (par[j].pp != proc) {
            last_remote = j;
            break;
        }
    }
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double pfinish = par[j].fin;
        Py_ssize_t e = par[j].e;
        Py_ssize_t pproc = par[j].pp;
        if (pproc == proc) {
            if (pfinish > est)
                est = pfinish;
            continue;
        }
        double cost = st->links[pproc * st->p + proc];
        if (check && !isfinite(cost)) {
            PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                         pproc, proc);
            *err = 1;
            return 0.0;
        }
        double dur = st->edata[e] * cost;
        if (dur == 0.0) {
            if (pfinish > est)
                est = pfinish;
            continue;
        }
        Py_ssize_t rs = eg->send0 + pproc;
        Row *srow = &eg->rows[rs];
        TRow *stv = (eg->tent[rs].gen == gen) ? &eg->tent[rs] : NULL;
        Py_ssize_t si = -1, xi = -1, ri = -1, yi = -1;
        long long ver = eg->row_ver[rs];
        double t;
        if (eg->seed_ver[e] == ver && eg->seed_src[e] == pproc &&
            eg->seed_ready[e] == pfinish && eg->seed_dur[e] == dur) {
            eg->c_seed_hit++;
            t = eg->seed_t[e];
        } else {
            eg->c_seed_miss++;
            t = pfinish;
            if (srow->len && srow->e[srow->len - 1] > t) {
                si = bisect_right_d(srow->s, srow->len, t) - 1;
                if (si >= 0 && srow->e[si] > t)
                    t = srow->e[si];
                si += 1;
                Py_ssize_t n = srow->len;
                double lim = t + dur;
                while (si < n && srow->s[si] < lim) {
                    if (srow->e[si] > t) {
                        t = srow->e[si];
                        lim = t + dur;
                    }
                    si++;
                }
            }
            eg->seed_ver[e] = ver;
            eg->seed_src[e] = pproc;
            eg->seed_ready[e] = pfinish;
            eg->seed_dur[e] = dur;
            eg->seed_t[e] = t;
        }
        for (;;) {
            int moved = 0;
            /* send committed */
            if (srow->len && srow->e[srow->len - 1] > t) {
                if (si < 0) {
                    si = bisect_right_d(srow->s, srow->len, t) - 1;
                    if (si >= 0 && srow->e[si] > t) {
                        t = srow->e[si];
                        moved = 1;
                    }
                    si += 1;
                }
                Py_ssize_t n = srow->len;
                double lim = t + dur;
                while (si < n && srow->s[si] < lim) {
                    if (srow->e[si] > t) {
                        t = srow->e[si];
                        lim = t + dur;
                        moved = 1;
                    }
                    si++;
                }
            }
            /* send tentative (same-source siblings booked this trial) */
            if (stv && stv->len && stv->e[stv->len - 1] > t) {
                if (xi < 0) {
                    xi = bisect_right_d(stv->s, stv->len, t) - 1;
                    if (xi >= 0 && stv->e[xi] > t) {
                        t = stv->e[xi];
                        moved = 1;
                    }
                    xi += 1;
                }
                Py_ssize_t n = stv->len;
                double lim = t + dur;
                while (xi < n && stv->s[xi] < lim) {
                    if (stv->e[xi] > t) {
                        t = stv->e[xi];
                        lim = t + dur;
                        moved = 1;
                    }
                    xi++;
                }
            }
            /* recv committed */
            if (rrow->len && rrow->e[rrow->len - 1] > t) {
                if (ri < 0) {
                    ri = bisect_right_d(rrow->s, rrow->len, t) - 1;
                    if (ri >= 0 && rrow->e[ri] > t) {
                        t = rrow->e[ri];
                        moved = 1;
                    }
                    ri += 1;
                }
                Py_ssize_t n = rrow->len;
                double lim = t + dur;
                while (ri < n && rrow->s[ri] < lim) {
                    if (rrow->e[ri] > t) {
                        t = rrow->e[ri];
                        lim = t + dur;
                        moved = 1;
                    }
                    ri++;
                }
            }
            /* recv tentative (other messages booked this trial) */
            if (rtv && rtv->len && rtv->e[rtv->len - 1] > t) {
                if (yi < 0) {
                    yi = bisect_right_d(rtv->s, rtv->len, t) - 1;
                    if (yi >= 0 && rtv->e[yi] > t) {
                        t = rtv->e[yi];
                        moved = 1;
                    }
                    yi += 1;
                }
                Py_ssize_t n = rtv->len;
                double lim = t + dur;
                while (yi < n && rtv->s[yi] < lim) {
                    if (rtv->e[yi] > t) {
                        t = rtv->e[yi];
                        lim = t + dur;
                        moved = 1;
                    }
                    yi++;
                }
            }
            if (!moved)
                break;
        }
        double end = t + dur;
        if (j < last_remote) {
            /* book tentatively on both rows (truncating stale layers) */
            if (stv == NULL) {
                stv = &eg->tent[rs];
                stv->len = 0;
                stv->gen = gen;
            }
            Py_ssize_t i = bisect_right_d(stv->s, stv->len, t);
            if (trow_insert(stv, i, t, end) < 0) {
                *err = 1;
                return 0.0;
            }
            if (rtv == NULL) {
                rtv = &eg->tent[rr];
                if (rtv->gen != gen) {
                    rtv->len = 0;
                    rtv->gen = gen;
                }
            }
            i = bisect_right_d(rtv->s, rtv->len, t);
            if (trow_insert(rtv, i, t, end) < 0) {
                *err = 1;
                return 0.0;
            }
        }
        if (end > est) {
            est = end;
            if (est + duration > cutoff)
                return est;  /* partial: candidate provably loses */
        }
    }
    return est;
}

static double
trial_est_dispatch(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                   Py_ssize_t proc, double cutoff, double duration, int *err)
{
    switch (eg->model) {
    case MODEL_ONE_PORT:
        return oneport_trial_est(eg, par, np_, proc, cutoff, duration, err);
    case MODEL_MACRO:
        return macro_trial_est(eg, par, np_, proc, err);
    default:
        return joint_trial_est(eg, par, np_, proc, err);
    }
}

/* ------------------------------------------------------------------ */
/* model bookers: commit_est                                          */
/* ------------------------------------------------------------------ */

static int
ev_append(EngineObject *eg, Py_ssize_t e, Py_ssize_t q, double t, double dur)
{
    if (eg->ev_len >= eg->ev_cap) {
        Py_ssize_t nc = eg->ev_cap ? eg->ev_cap * 2 : 16;
        EvRec *ne = PyMem_Realloc(eg->ev, (size_t)nc * sizeof(EvRec));
        if (ne == NULL) { PyErr_NoMemory(); return -1; }
        eg->ev = ne;
        eg->ev_cap = nc;
    }
    eg->ev[eg->ev_len].e = e;
    eg->ev[eg->ev_len].q = q;
    eg->ev[eg->ev_len].t = t;
    eg->ev[eg->ev_len].dur = dur;
    eg->ev_len++;
    return 0;
}

static double
macro_commit_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                 Py_ssize_t proc, int *err)
{
    StaticsObject *st = eg->st;
    int check = !st->all_links_finite;
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double arr;
        if (par[j].pp == proc) {
            arr = par[j].fin;
        } else {
            double cost = st->links[par[j].pp * st->p + proc];
            if (check && !isfinite(cost)) {
                PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                             par[j].pp, proc);
                *err = 1;
                return 0.0;
            }
            double dur = st->edata[par[j].e] * cost;
            if (ev_append(eg, par[j].e, par[j].pp, par[j].fin, dur) < 0) {
                *err = 1;
                return 0.0;
            }
            arr = par[j].fin + dur;
        }
        if (arr > est)
            est = arr;
    }
    return est;
}

static double
joint_commit_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                 Py_ssize_t proc, int *err)
{
    StaticsObject *st = eg->st;
    int check = !st->all_links_finite;
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double arr;
        Py_ssize_t pp = par[j].pp;
        if (pp == proc) {
            arr = par[j].fin;
        } else {
            double cost = st->links[pp * st->p + proc];
            if (check && !isfinite(cost)) {
                PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                             pp, proc);
                *err = 1;
                return 0.0;
            }
            double dur = st->edata[par[j].e] * cost;
            if (dur == 0.0) {
                if (ev_append(eg, par[j].e, pp, par[j].fin, 0.0) < 0) {
                    *err = 1;
                    return 0.0;
                }
                arr = par[j].fin;
            } else {
                Py_ssize_t rows[4];
                int nrows = joint_rows_for(eg, pp, proc, rows);
                double start = joint_next_fit_c(eg, rows, nrows,
                                                par[j].fin, dur);
                double end = start + dur;
                for (int k = 0; k < nrows; k++) {
                    if (book_c(eg, rows[k], start, end) < 0) {
                        *err = 1;
                        return 0.0;
                    }
                }
                if (ev_append(eg, par[j].e, pp, start, dur) < 0) {
                    *err = 1;
                    return 0.0;
                }
                arr = end;
            }
        }
        if (arr > est)
            est = arr;
    }
    return est;
}

/* OnePortFlatBooker.commit_est: committed layers only, re-bisecting
 * two-layer fixed point (no cursors — mirrors the Python source). */
static double
oneport_commit_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                   Py_ssize_t proc, int *err)
{
    StaticsObject *st = eg->st;
    int check = !st->all_links_finite;
    Py_ssize_t rr = eg->recv0 + proc;
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double pfinish = par[j].fin;
        Py_ssize_t e = par[j].e;
        Py_ssize_t pproc = par[j].pp;
        if (pproc == proc) {
            if (pfinish > est)
                est = pfinish;
            continue;
        }
        double cost = st->links[pproc * st->p + proc];
        if (check && !isfinite(cost)) {
            PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                         pproc, proc);
            *err = 1;
            return 0.0;
        }
        double dur = st->edata[e] * cost;
        if (dur == 0.0) {
            if (ev_append(eg, e, pproc, pfinish, 0.0) < 0) {
                *err = 1;
                return 0.0;
            }
            if (pfinish > est)
                est = pfinish;
            continue;
        }
        Py_ssize_t rs = eg->send0 + pproc;
        Row *srow = &eg->rows[rs];
        Row *rrow = &eg->rows[rr];
        double t = pfinish;
        for (;;) {
            int moved = 0;
            if (srow->len && srow->e[srow->len - 1] > t) {
                Py_ssize_t i = bisect_right_d(srow->s, srow->len, t) - 1;
                if (i >= 0 && srow->e[i] > t) {
                    t = srow->e[i];
                    moved = 1;
                }
                i += 1;
                Py_ssize_t n = srow->len;
                double lim = t + dur;
                while (i < n && srow->s[i] < lim) {
                    if (srow->e[i] > t) {
                        t = srow->e[i];
                        lim = t + dur;
                        moved = 1;
                    }
                    i++;
                }
            }
            if (rrow->len && rrow->e[rrow->len - 1] > t) {
                Py_ssize_t i = bisect_right_d(rrow->s, rrow->len, t) - 1;
                if (i >= 0 && rrow->e[i] > t) {
                    t = rrow->e[i];
                    moved = 1;
                }
                i += 1;
                Py_ssize_t n = rrow->len;
                double lim = t + dur;
                while (i < n && rrow->s[i] < lim) {
                    if (rrow->e[i] > t) {
                        t = rrow->e[i];
                        lim = t + dur;
                        moved = 1;
                    }
                    i++;
                }
            }
            if (!moved)
                break;
        }
        double end = t + dur;
        if (book_c(eg, rs, t, end) < 0 || book_c(eg, rr, t, end) < 0) {
            *err = 1;
            return 0.0;
        }
        if (ev_append(eg, e, pproc, t, dur) < 0) {
            *err = 1;
            return 0.0;
        }
        if (end > est)
            est = end;
    }
    return est;
}

static double
commit_est_dispatch(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                    Py_ssize_t proc, int *err)
{
    switch (eg->model) {
    case MODEL_ONE_PORT:
        return oneport_commit_est(eg, par, np_, proc, err);
    case MODEL_MACRO:
        return macro_commit_est(eg, par, np_, proc, err);
    default:
        return joint_commit_est(eg, par, np_, proc, err);
    }
}

/* ------------------------------------------------------------------ */
/* Engine methods (the Python-visible surface)                        */
/* ------------------------------------------------------------------ */

static int
check_ti(EngineObject *eg, Py_ssize_t ti)
{
    if (ti < 0 || ti >= eg->st->n) {
        PyErr_Format(PyExc_IndexError, "task index %zd out of range", ti);
        return -1;
    }
    return 0;
}

static int
check_proc(EngineObject *eg, Py_ssize_t proc)
{
    if (proc < 0 || proc >= eg->st->p) {
        PyErr_Format(PyExc_IndexError, "processor %zd out of range", proc);
        return -1;
    }
    return 0;
}

/* Parse a procs argument: None = all processors (returns NULL with
 * *count = p); otherwise a malloc'd validated index array. */
static Py_ssize_t *
parse_procs(EngineObject *eg, PyObject *procs_o, Py_ssize_t *count, int *err)
{
    *err = 0;
    if (procs_o == Py_None) {
        *count = eg->st->p;
        return NULL;
    }
    PyObject *fast = PySequence_Fast(procs_o, "procs must be a sequence");
    if (fast == NULL) {
        *err = 1;
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    Py_ssize_t *out = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(Py_ssize_t));
    if (out == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        *err = 1;
        return NULL;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t v = PyNumber_AsSsize_t(items[i], PyExc_OverflowError);
        if ((v == -1 && PyErr_Occurred()) || v < 0 || v >= eg->st->p) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_IndexError, "processor %zd out of range", v);
            Py_DECREF(fast);
            PyMem_Free(out);
            *err = 1;
            return NULL;
        }
        out[i] = v;
    }
    Py_DECREF(fast);
    *count = n;
    return out;
}

/* refuse a task that is already placed, before anything is mutated */
static int
check_unplaced(EngineObject *eg, Py_ssize_t ti)
{
    if (eg->proc_a[ti] >= 0) {
        PyErr_Format(SCHED_ERR, "task #%zd placed twice", ti);
        return -1;
    }
    return 0;
}

/* compute slot of a duration-long window on proc at or after est */
static inline double
slot_c(EngineObject *eg, Py_ssize_t proc, double est, double duration,
       int use_insertion)
{
    Row *crow = &eg->rows[proc];
    if (use_insertion)
        return row_next_fit_c(crow->s, crow->e, crow->len, est, duration);
    double last = crow->len ? crow->e[crow->len - 1] : 0.0;
    return est >= last ? est : last;
}

/* SchedulerState.best_candidate's sweep over ti's resolved parents
 * (eg->par[0..np_)): min-EFT with maxpf / frontier / in-trial-abort
 * pruning and the strict (finish, start, proc) tie-break.  procs NULL
 * means processors 0..nprocs-1.  *bp_out is -1 when nothing qualifies. */
static int
sweep_c(EngineObject *eg, Py_ssize_t ti, Py_ssize_t np_, int use_insertion,
        const Py_ssize_t *procs, Py_ssize_t nprocs, Py_ssize_t *bp_out,
        double *bs_out, double *bf_out)
{
    StaticsObject *st = eg->st;
    const double *exec_row = st->exec_ + ti * st->p;
    int prunable = st->all_links_finite;
    const PRow *par = eg->par;
    double maxpf = np_ ? par[np_ - 1].fin : 0.0;
    double inf = Py_HUGE_VAL;
    double bf = inf, bs = inf;
    Py_ssize_t bp = -1;
    for (Py_ssize_t k = 0; k < nprocs; k++) {
        Py_ssize_t proc = procs ? procs[k] : k;
        double duration = exec_row[proc];
        if (prunable && maxpf + duration > bf) {
            eg->c_prune_maxpf++;
            continue;
        }
        Row *crow = &eg->rows[proc];
        double last = crow->len ? crow->e[crow->len - 1] : 0.0;
        if (prunable && !use_insertion && last + duration > bf) {
            eg->c_prune_frontier++;
            continue;
        }
        eg->gen += 1;  /* begin_trial */
        eg->c_candidates++;
        int err = 0;
        double est = trial_est_dispatch(eg, par, np_, proc,
                                        prunable ? bf : inf, duration, &err);
        if (err)
            return -1;
        if (prunable && est + duration > bf) {
            eg->c_prune_abort++;
            continue;
        }
        double start;
        if (use_insertion)
            start = row_next_fit_c(crow->s, crow->e, crow->len, est, duration);
        else
            start = est >= last ? est : last;
        double finish = start + duration;
        if (finish < bf ||
            (finish == bf && (start < bs || (start == bs && proc < bp)))) {
            bf = finish;
            bs = start;
            bp = proc;
        }
    }
    *bp_out = bp;
    *bs_out = bs;
    *bf_out = bf;
    return 0;
}

static int
plog_append(EngineObject *eg, Py_ssize_t ti)
{
    if (eg->plog_len >= eg->plog_cap) {
        Py_ssize_t nc = eg->plog_cap ? eg->plog_cap * 2 : 64;
        Py_ssize_t *np_ = PyMem_Realloc(eg->plog,
                                        (size_t)nc * sizeof(Py_ssize_t));
        if (np_ == NULL) { PyErr_NoMemory(); return -1; }
        eg->plog = np_;
        eg->plog_cap = nc;
    }
    eg->plog[eg->plog_len++] = ti;
    return 0;
}

/* SchedulerState._commit_comms: re-derive ti's transfers to proc from
 * the committed rows (eg->par must hold ti's parents), book them, and
 * log them.  *est is the latest arrival.  A failure logs none of them. */
static int
commit_comms_c(EngineObject *eg, Py_ssize_t ti, Py_ssize_t proc,
               Py_ssize_t np_, double *est)
{
    Py_ssize_t ev0 = eg->ev_len;
    int err = 0;
    eg->gen += 1;  /* stale any tentative data */
    *est = commit_est_dispatch(eg, eg->par, np_, proc, &err);
    if (err) {
        eg->ev_len = ev0;
        return -1;
    }
    for (Py_ssize_t k = ev0; k < eg->ev_len; k++)
        eg->ev[k].ti = ti;
    return 0;
}

/* SchedulerState._place: book the compute window, log the placement */
static int
place_c(EngineObject *eg, Py_ssize_t ti, Py_ssize_t proc, double start,
        double finish)
{
    eg->c_commits++;
    if (book_c(eg, proc, start, finish) < 0 || plog_append(eg, ti) < 0)
        return -1;
    eg->proc_a[ti] = proc;
    eg->start_a[ti] = start;
    eg->finish_a[ti] = finish;
    return 0;
}

/* the commit of a candidate: its transfers, then its compute window */
static int
commit_c(EngineObject *eg, Py_ssize_t ti, Py_ssize_t proc, Py_ssize_t np_,
         double start, double finish)
{
    double est;
    if (commit_comms_c(eg, ti, proc, np_, &est) < 0)
        return -1;
    return place_c(eg, ti, proc, start, finish);
}

/* SchedulerState.best_candidate: (proc, start, finish) of the sweep's
 * winner, or None when no candidate exists. */
static PyObject *
Engine_best_candidate(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti;
    int use_insertion;
    PyObject *procs_o;
    if (!PyArg_ParseTuple(args, "npO:best_candidate", &ti, &use_insertion,
                          &procs_o))
        return NULL;
    if (check_ti(eg, ti) < 0)
        return NULL;
    Py_ssize_t np_ = resolve_parents(eg, ti);
    if (np_ < 0)
        return NULL;
    int perr = 0;
    Py_ssize_t nprocs;
    Py_ssize_t *procs = parse_procs(eg, procs_o, &nprocs, &perr);
    if (perr)
        return NULL;
    Py_ssize_t bp;
    double bs, bf;
    int rc = sweep_c(eg, ti, np_, use_insertion, procs, nprocs, &bp, &bs, &bf);
    PyMem_Free(procs);
    if (rc < 0)
        return NULL;
    if (bp < 0)
        Py_RETURN_NONE;
    return Py_BuildValue("(ndd)", bp, bs, bf);
}

/* one candidate: begin_trial + trial_est + compute slot */
static int
eval_one_c(EngineObject *eg, Py_ssize_t ti, Py_ssize_t proc,
           int use_insertion, const PRow *par, Py_ssize_t np_,
           double *start_out, double *finish_out)
{
    eg->gen += 1;  /* begin_trial */
    eg->c_candidates++;
    int err = 0;
    double est = trial_est_dispatch(eg, par, np_, proc, Py_HUGE_VAL, 0.0,
                                    &err);
    if (err)
        return -1;
    double duration = eg->st->exec_[ti * eg->st->p + proc];
    double start = slot_c(eg, proc, est, duration, use_insertion);
    *start_out = start;
    *finish_out = start + duration;
    return 0;
}

static PyObject *
Engine_evaluate_all(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti;
    int use_insertion;
    PyObject *procs_o;
    if (!PyArg_ParseTuple(args, "npO:evaluate_all", &ti, &use_insertion,
                          &procs_o))
        return NULL;
    if (check_ti(eg, ti) < 0)
        return NULL;
    Py_ssize_t np_ = resolve_parents(eg, ti);
    if (np_ < 0)
        return NULL;
    int perr = 0;
    Py_ssize_t nprocs;
    Py_ssize_t *procs = parse_procs(eg, procs_o, &nprocs, &perr);
    if (perr)
        return NULL;
    PyObject *out = PyList_New(nprocs);
    if (out == NULL) {
        PyMem_Free(procs);
        return NULL;
    }
    for (Py_ssize_t k = 0; k < nprocs; k++) {
        Py_ssize_t proc = procs ? procs[k] : k;
        double start, finish;
        if (eval_one_c(eg, ti, proc, use_insertion, eg->par, np_, &start,
                       &finish) < 0) {
            PyMem_Free(procs);
            Py_DECREF(out);
            return NULL;
        }
        PyObject *t = Py_BuildValue("(ndd)", proc, start, finish);
        if (t == NULL) {
            PyMem_Free(procs);
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, k, t);
    }
    PyMem_Free(procs);
    return out;
}

static PyObject *
Engine_evaluate_one(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti, proc;
    int use_insertion;
    if (!PyArg_ParseTuple(args, "nnp:evaluate_one", &ti, &proc,
                          &use_insertion))
        return NULL;
    if (check_ti(eg, ti) < 0 || check_proc(eg, proc) < 0)
        return NULL;
    Py_ssize_t np_ = resolve_parents(eg, ti);
    if (np_ < 0)
        return NULL;
    double start, finish;
    if (eval_one_c(eg, ti, proc, use_insertion, eg->par, np_, &start,
                   &finish) < 0)
        return NULL;
    return Py_BuildValue("(dd)", start, finish);
}

/* evaluate with explicit (pfinish, pi, e, pproc) rows, order preserved
 * (SchedulerState.evaluate with a hypothetical ``parents`` list) */
static PyObject *
Engine_evaluate_with_parents(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti, proc;
    int use_insertion;
    PyObject *rows_o;
    if (!PyArg_ParseTuple(args, "nnpO:evaluate_with_parents", &ti, &proc,
                          &use_insertion, &rows_o))
        return NULL;
    if (check_ti(eg, ti) < 0 || check_proc(eg, proc) < 0)
        return NULL;
    PyObject *fast = PySequence_Fast(rows_o, "parents must be a sequence");
    if (fast == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(fast);
    if (count > eg->par_cap) {
        Py_ssize_t nc = count < 16 ? 16 : count;
        PRow *np_ = PyMem_Realloc(eg->par, (size_t)nc * sizeof(PRow));
        if (np_ == NULL) {
            Py_DECREF(fast);
            return PyErr_NoMemory();
        }
        eg->par = np_;
        eg->par_cap = nc;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t k = 0; k < count; k++) {
        double fin;
        Py_ssize_t pi, e, pp;
        if (!PyArg_ParseTuple(items[k], "dnnn", &fin, &pi, &e, &pp)) {
            Py_DECREF(fast);
            return NULL;
        }
        if (e < 0 || e >= eg->st->m || pp < 0 || pp >= eg->st->p) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_IndexError, "parent row out of range");
            return NULL;
        }
        eg->par[k].fin = fin;
        eg->par[k].pi = pi;
        eg->par[k].e = e;
        eg->par[k].pp = pp;
    }
    Py_DECREF(fast);
    double start, finish;
    if (eval_one_c(eg, ti, proc, use_insertion, eg->par, count, &start,
                   &finish) < 0)
        return NULL;
    return Py_BuildValue("(dd)", start, finish);
}

/* SchedulerState.commit: books the transfers and the compute window of
 * a candidate evaluated against the current committed state. */
static PyObject *
Engine_commit(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti, proc;
    double start, finish;
    if (!PyArg_ParseTuple(args, "nndd:commit", &ti, &proc, &start, &finish))
        return NULL;
    if (check_ti(eg, ti) < 0 || check_proc(eg, proc) < 0 ||
        check_unplaced(eg, ti) < 0)
        return NULL;
    Py_ssize_t np_ = resolve_parents(eg, ti);
    if (np_ < 0 || commit_c(eg, ti, proc, np_, start, finish) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* SchedulerState.schedule_on: evaluate-and-commit on a fixed processor.
 * Returns (start, finish). */
static PyObject *
Engine_schedule_on(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti, proc;
    int use_insertion;
    if (!PyArg_ParseTuple(args, "nnp:schedule_on", &ti, &proc,
                          &use_insertion))
        return NULL;
    if (check_ti(eg, ti) < 0 || check_proc(eg, proc) < 0 ||
        check_unplaced(eg, ti) < 0)
        return NULL;
    Py_ssize_t np_ = resolve_parents(eg, ti);
    if (np_ < 0)
        return NULL;
    double est;
    if (commit_comms_c(eg, ti, proc, np_, &est) < 0)
        return NULL;
    double duration = eg->st->exec_[ti * eg->st->p + proc];
    double start = slot_c(eg, proc, est, duration, use_insertion);
    double finish = start + duration;
    if (place_c(eg, ti, proc, start, finish) < 0)
        return NULL;
    return Py_BuildValue("(dd)", start, finish);
}

/* SchedulerState.run_list: each interned task of order in turn goes
 * through best_candidate's sweep over every processor and is committed
 * at the winner -- the per-task loop in one call.  Returns the chosen
 * processors.  A failing task raises what the per-task calls raise and
 * leaves the tasks before it committed. */
static PyObject *
Engine_run_list(EngineObject *eg, PyObject *args)
{
    PyObject *order_o;
    int use_insertion;
    if (!PyArg_ParseTuple(args, "Op:run_list", &order_o, &use_insertion))
        return NULL;
    /* a private tuple: converting an item cannot resize it under us */
    PyObject *order = PySequence_Tuple(order_o);
    if (order == NULL)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(order);
    PyObject *procs = PyList_New(n);
    if (procs == NULL) {
        Py_DECREF(order);
        return NULL;
    }
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t ti = PyNumber_AsSsize_t(PyTuple_GET_ITEM(order, k),
                                           PyExc_OverflowError);
        if (ti == -1 && PyErr_Occurred())
            goto fail;
        if (check_ti(eg, ti) < 0 || check_unplaced(eg, ti) < 0)
            goto fail;
        Py_ssize_t np_ = resolve_parents(eg, ti);
        Py_ssize_t bp;
        double bs, bf;
        if (np_ < 0 ||
            sweep_c(eg, ti, np_, use_insertion, NULL, eg->st->p, &bp, &bs,
                    &bf) < 0)
            goto fail;
        if (bp < 0) {
            PyErr_Format(SCHED_ERR, "no candidate processors for task #%zd",
                         ti);
            goto fail;
        }
        if (commit_c(eg, ti, bp, np_, bs, bf) < 0)
            goto fail;
        PyObject *v = PyLong_FromSsize_t(bp);
        if (v == NULL)
            goto fail;
        PyList_SET_ITEM(procs, k, v);
    }
    Py_DECREF(order);
    return procs;
fail:
    Py_DECREF(order);
    Py_DECREF(procs);
    return NULL;
}

/* SchedulerState._parents: ti's parent rows (finish, parent, edge,
 * proc) sorted by (finish, parent) */
static PyObject *
Engine_parents(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti;
    if (!PyArg_ParseTuple(args, "n:parents", &ti))
        return NULL;
    if (check_ti(eg, ti) < 0)
        return NULL;
    Py_ssize_t np_ = resolve_parents(eg, ti);
    if (np_ < 0)
        return NULL;
    PyObject *out = PyList_New(np_);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < np_; k++) {
        PRow *r = &eg->par[k];
        PyObject *t = Py_BuildValue("(dnnn)", r->fin, r->pi, r->e, r->pp);
        if (t == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, k, t);
    }
    return out;
}

/* SchedulerState.parent_procs: the set of processors hosting ti's
 * parents (ILHA's Step 1 test, once per chunk task) */
static PyObject *
Engine_parent_procs(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti;
    if (!PyArg_ParseTuple(args, "n:parent_procs", &ti))
        return NULL;
    if (check_ti(eg, ti) < 0)
        return NULL;
    StaticsObject *st = eg->st;
    PyObject *out = PySet_New(NULL);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t k = st->pred_ptr[ti]; k < st->pred_ptr[ti + 1]; k++) {
        Py_ssize_t pi = st->esrc[st->pred_eix[k]];
        Py_ssize_t pp = eg->proc_a[pi];
        if (pp < 0) {
            PyErr_Format(SCHED_ERR,
                         "task #%zd evaluated before its parent #%zd was "
                         "scheduled", ti, pi);
            Py_DECREF(out);
            return NULL;
        }
        PyObject *v = PyLong_FromSsize_t(pp);
        int rc = v ? PySet_Add(out, v) : -1;
        Py_XDECREF(v);
        if (rc < 0) {
            Py_DECREF(out);
            return NULL;
        }
    }
    return out;
}

/* SchedulerState._records: the schedule's records from the logs --
 * ({task: TaskPlacement} in commit order, [CommEvent] in booking order)
 * -- built by new_record.  tasks is KernelStatics.tasks; every event is
 * a direct transfer (hop 0) into its consuming task's processor. */
static PyObject *
Engine_records(EngineObject *eg, PyObject *args)
{
    PyTypeObject *pcls, *ecls;
    PyObject *tasks;
    if (!PyArg_ParseTuple(args, "O!O!O!:records", &PyType_Type, &pcls,
                          &PyType_Type, &ecls, &PyList_Type, &tasks))
        return NULL;
    if (check_record_cls(pcls) < 0 || check_record_cls(ecls) < 0)
        return NULL;
    StaticsObject *st = eg->st;
    if (PyList_GET_SIZE(tasks) != st->n) {
        PyErr_Format(PyExc_ValueError, "records: %zd tasks, expected %zd",
                     PyList_GET_SIZE(tasks), st->n);
        return NULL;
    }
    PyObject *placements = PyDict_New();
    PyObject *events = PyList_New(eg->ev_len);
    PyObject *zero = PyLong_FromLong(0);
    if (placements == NULL || events == NULL || zero == NULL)
        goto fail;
    for (Py_ssize_t k = 0; k < eg->plog_len; k++) {
        Py_ssize_t ti = eg->plog[k];
        PyObject *f[4] = {PyList_GET_ITEM(tasks, ti),
                          PyLong_FromSsize_t(eg->proc_a[ti]),
                          PyFloat_FromDouble(eg->start_a[ti]),
                          PyFloat_FromDouble(eg->finish_a[ti])};
        PyObject *rec = f[1] && f[2] && f[3] ? new_record(pcls, f, 4) : NULL;
        Py_XDECREF(f[1]);
        Py_XDECREF(f[2]);
        Py_XDECREF(f[3]);
        int rc = rec ? PyDict_SetItem(placements, f[0], rec) : -1;
        Py_XDECREF(rec);
        if (rc < 0)
            goto fail;
    }
    for (Py_ssize_t k = 0; k < eg->ev_len; k++) {
        EvRec *ev = &eg->ev[k];
        PyObject *f[8] = {PyList_GET_ITEM(tasks, st->esrc[ev->e]),
                          PyList_GET_ITEM(tasks, ev->ti),
                          PyLong_FromSsize_t(ev->q),
                          PyLong_FromSsize_t(eg->proc_a[ev->ti]),
                          PyFloat_FromDouble(ev->t),
                          PyFloat_FromDouble(ev->t + ev->dur),
                          PyFloat_FromDouble(st->edata[ev->e]),
                          zero};
        PyObject *rec = NULL;
        if (f[2] && f[3] && f[4] && f[5] && f[6])
            rec = new_record(ecls, f, 8);
        for (int j = 2; j < 7; j++)
            Py_XDECREF(f[j]);
        if (rec == NULL)
            goto fail;
        PyList_SET_ITEM(events, k, rec);
    }
    Py_DECREF(zero);
    return Py_BuildValue("(NN)", placements, events);
fail:
    Py_XDECREF(placements);
    Py_XDECREF(events);
    Py_XDECREF(zero);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* journal / copy / introspection                                     */
/* ------------------------------------------------------------------ */

static PyObject *
Engine_mark(EngineObject *eg, PyObject *Py_UNUSED(ignored))
{
    if (eg->mark_depth == 0)
        eg->log_len = 0;  /* builder.mark: log = [] when None */
    eg->mark_depth += 1;
    return Py_BuildValue("(nnn)", eg->log_len, eg->plog_len, eg->ev_len);
}

/* FlatBuilder.rollback + SchedulerState.restore: undo the bookings after
 * the journal cursor, unplace the tasks logged after the placement
 * cursor and drop the transfers logged after the event cursor. */
static PyObject *
Engine_rollback(EngineObject *eg, PyObject *args)
{
    Py_ssize_t cursor, pcursor, ecursor;
    if (!PyArg_ParseTuple(args, "nnn:rollback", &cursor, &pcursor, &ecursor))
        return NULL;
    if (eg->mark_depth == 0) {
        PyErr_SetString(TIMELINE_ERR, "rollback without an active mark");
        return NULL;
    }
    if (cursor < 0 || cursor > eg->log_len || pcursor < 0 ||
        pcursor > eg->plog_len || ecursor < 0 || ecursor > eg->ev_len) {
        PyErr_SetString(PyExc_ValueError, "bad rollback cursor");
        return NULL;
    }
    Py_ssize_t entries = eg->log_len - cursor;
    eg->c_rollbacks++;
    eg->c_rollback_entries += entries;
    memset(eg->touched, 0, (size_t)eg->num_rows);
    for (Py_ssize_t i = eg->log_len - 1; i >= cursor; i--) {
        Py_ssize_t r = eg->log[i].r;
        Py_ssize_t pos = eg->log[i].pos;
        Row *row = &eg->rows[r];
        memmove(row->s + pos, row->s + pos + 1,
                (size_t)(row->len - pos - 1) * sizeof(double));
        memmove(row->e + pos, row->e + pos + 1,
                (size_t)(row->len - pos - 1) * sizeof(double));
        row->len--;
        eg->touched[r] = 1;
    }
    for (Py_ssize_t r = 0; r < eg->num_rows; r++) {
        if (eg->touched[r])
            eg->row_ver[r] += 1;
    }
    eg->log_len = cursor;
    eg->mark_depth -= 1;
    eg->gen += 1;
    eg->commit_count += 1;
    for (Py_ssize_t i = pcursor; i < eg->plog_len; i++)
        eg->proc_a[eg->plog[i]] = -1;
    eg->plog_len = pcursor;
    eg->ev_len = ecursor;
    Py_RETURN_NONE;
}

/* copy of a log's n live entries of size bytes each (NULL when empty) */
static int
copy_log(void **dst, Py_ssize_t *cap, const void *src, Py_ssize_t n,
         size_t size)
{
    if (n == 0)
        return 0;
    *dst = PyMem_Malloc((size_t)n * size);
    if (*dst == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memcpy(*dst, src, (size_t)n * size);
    *cap = n;
    return 0;
}

/* independent deep copy of committed state (FlatBuilder.copy +
 * booker.rebind semantics: fresh tentative layers, fresh seed memo,
 * no journal, counters zeroed), placement and event logs included */
static PyObject *
Engine_copy(EngineObject *eg, PyObject *Py_UNUSED(ignored))
{
    EngineObject *dup =
        (EngineObject *)Py_TYPE(eg)->tp_alloc(Py_TYPE(eg), 0);
    if (dup == NULL)
        return NULL;
    if (engine_alloc(dup, eg->st, eg->model) < 0) {
        Py_DECREF(dup);
        return NULL;
    }
    for (Py_ssize_t r = 0; r < eg->num_rows; r++) {
        Row *src = &eg->rows[r];
        Row *dst = &dup->rows[r];
        if (src->len) {
            dst->s = PyMem_Malloc((size_t)src->len * sizeof(double));
            dst->e = PyMem_Malloc((size_t)src->len * sizeof(double));
            if (dst->s == NULL || dst->e == NULL) {
                Py_DECREF(dup);
                return PyErr_NoMemory();
            }
            memcpy(dst->s, src->s, (size_t)src->len * sizeof(double));
            memcpy(dst->e, src->e, (size_t)src->len * sizeof(double));
            dst->len = dst->cap = src->len;
        }
        dup->row_ver[r] = eg->row_ver[r];
    }
    memcpy(dup->proc_a, eg->proc_a, (size_t)eg->st->n * sizeof(Py_ssize_t));
    memcpy(dup->start_a, eg->start_a, (size_t)eg->st->n * sizeof(double));
    memcpy(dup->finish_a, eg->finish_a, (size_t)eg->st->n * sizeof(double));
    if (copy_log((void **)&dup->plog, &dup->plog_cap, eg->plog, eg->plog_len,
                 sizeof(Py_ssize_t)) < 0 ||
        copy_log((void **)&dup->ev, &dup->ev_cap, eg->ev, eg->ev_len,
                 sizeof(EvRec)) < 0) {
        Py_DECREF(dup);
        return NULL;
    }
    dup->plog_len = eg->plog_len;
    dup->ev_len = eg->ev_len;
    return (PyObject *)dup;
}

static PyObject *
Engine_committed(EngineObject *eg, PyObject *args)
{
    Py_ssize_t r;
    if (!PyArg_ParseTuple(args, "n:committed", &r))
        return NULL;
    if (r < 0 || r >= eg->num_rows) {
        PyErr_Format(PyExc_IndexError, "row %zd out of range", r);
        return NULL;
    }
    Row *row = &eg->rows[r];
    PyObject *out = PyList_New(row->len);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < row->len; i++) {
        PyObject *t = Py_BuildValue("(dd)", row->s[i], row->e[i]);
        if (t == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, t);
    }
    return out;
}

static PyObject *
Engine_row_len(EngineObject *eg, PyObject *args)
{
    Py_ssize_t r;
    if (!PyArg_ParseTuple(args, "n:row_len", &r))
        return NULL;
    if (r < 0 || r >= eg->num_rows) {
        PyErr_Format(PyExc_IndexError, "row %zd out of range", r);
        return NULL;
    }
    return PyLong_FromSsize_t(eg->rows[r].len);
}

static PyObject *
Engine_last_end(EngineObject *eg, PyObject *args)
{
    Py_ssize_t r;
    if (!PyArg_ParseTuple(args, "n:last_end", &r))
        return NULL;
    if (r < 0 || r >= eg->num_rows) {
        PyErr_Format(PyExc_IndexError, "row %zd out of range", r);
        return NULL;
    }
    Row *row = &eg->rows[r];
    return PyFloat_FromDouble(row->len ? row->e[row->len - 1] : 0.0);
}

static PyObject *
Engine_next_fit(EngineObject *eg, PyObject *args)
{
    Py_ssize_t r;
    double ready, duration;
    if (!PyArg_ParseTuple(args, "ndd:next_fit", &r, &ready, &duration))
        return NULL;
    if (r < 0 || r >= eg->num_rows) {
        PyErr_Format(PyExc_IndexError, "row %zd out of range", r);
        return NULL;
    }
    Row *row = &eg->rows[r];
    return PyFloat_FromDouble(
        row_next_fit_c(row->s, row->e, row->len, ready, duration));
}

static PyObject *
Engine_book(EngineObject *eg, PyObject *args)
{
    Py_ssize_t r;
    double start, end;
    if (!PyArg_ParseTuple(args, "ndd:book", &r, &start, &end))
        return NULL;
    if (r < 0 || r >= eg->num_rows) {
        PyErr_Format(PyExc_IndexError, "row %zd out of range", r);
        return NULL;
    }
    if (book_c(eg, r, start, end) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_fingerprint(EngineObject *eg, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyTuple_New(eg->num_rows);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t r = 0; r < eg->num_rows; r++) {
        Row *row = &eg->rows[r];
        PyObject *rt = PyTuple_New(row->len);
        if (rt == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        for (Py_ssize_t i = 0; i < row->len; i++) {
            PyObject *iv = Py_BuildValue("(dd)", row->s[i], row->e[i]);
            if (iv == NULL) {
                Py_DECREF(rt);
                Py_DECREF(out);
                return NULL;
            }
            PyTuple_SET_ITEM(rt, i, iv);
        }
        PyTuple_SET_ITEM(out, r, rt);
    }
    return out;
}

/* catalog names for drain_counters, matching the struct field order */
static const char *const counter_names[9] = {
    "builder.candidates", "builder.prune.maxpf", "builder.prune.frontier",
    "builder.prune.abort", "oneport.seed.hit", "oneport.seed.miss",
    "builder.commits", "builder.rollbacks", "builder.rollback_entries",
};

/* deltas since the last drain, as a dict of only the counters that
 * moved (None when nothing did) — cheap enough to call per commit */
static PyObject *
Engine_drain_counters(EngineObject *eg, PyObject *Py_UNUSED(ignored))
{
    long long cur[9] = {
        eg->c_candidates, eg->c_prune_maxpf, eg->c_prune_frontier,
        eg->c_prune_abort, eg->c_seed_hit, eg->c_seed_miss,
        eg->c_commits, eg->c_rollbacks, eg->c_rollback_entries,
    };
    PyObject *out = NULL;
    for (int i = 0; i < 9; i++) {
        long long d = cur[i] - eg->c_snap[i];
        if (d == 0)
            continue;
        if (out == NULL && (out = PyDict_New()) == NULL)
            return NULL;
        PyObject *v = PyLong_FromLongLong(d);
        if (v == NULL || PyDict_SetItemString(out, counter_names[i], v) < 0) {
            Py_XDECREF(v);
            Py_DECREF(out);
            return NULL;
        }
        Py_DECREF(v);
        eg->c_snap[i] = cur[i];
    }
    if (out == NULL)
        Py_RETURN_NONE;
    return out;
}

static PyMethodDef Engine_methods[] = {
    {"best_candidate", (PyCFunction)Engine_best_candidate, METH_VARARGS, NULL},
    {"evaluate_all", (PyCFunction)Engine_evaluate_all, METH_VARARGS, NULL},
    {"evaluate_one", (PyCFunction)Engine_evaluate_one, METH_VARARGS, NULL},
    {"evaluate_with_parents", (PyCFunction)Engine_evaluate_with_parents,
     METH_VARARGS, NULL},
    {"commit", (PyCFunction)Engine_commit, METH_VARARGS, NULL},
    {"schedule_on", (PyCFunction)Engine_schedule_on, METH_VARARGS, NULL},
    {"run_list", (PyCFunction)Engine_run_list, METH_VARARGS, NULL},
    {"parents", (PyCFunction)Engine_parents, METH_VARARGS, NULL},
    {"parent_procs", (PyCFunction)Engine_parent_procs, METH_VARARGS, NULL},
    {"records", (PyCFunction)Engine_records, METH_VARARGS, NULL},
    {"mark", (PyCFunction)Engine_mark, METH_NOARGS, NULL},
    {"rollback", (PyCFunction)Engine_rollback, METH_VARARGS, NULL},
    {"copy", (PyCFunction)Engine_copy, METH_NOARGS, NULL},
    {"committed", (PyCFunction)Engine_committed, METH_VARARGS, NULL},
    {"row_len", (PyCFunction)Engine_row_len, METH_VARARGS, NULL},
    {"last_end", (PyCFunction)Engine_last_end, METH_VARARGS, NULL},
    {"next_fit", (PyCFunction)Engine_next_fit, METH_VARARGS, NULL},
    {"book", (PyCFunction)Engine_book, METH_VARARGS, NULL},
    {"fingerprint", (PyCFunction)Engine_fingerprint, METH_NOARGS, NULL},
    {"drain_counters", (PyCFunction)Engine_drain_counters, METH_NOARGS,
     NULL},
    {NULL}
};

static PyMemberDef Engine_members[] = {
    {"gen", T_LONGLONG, offsetof(EngineObject, gen), READONLY, NULL},
    {"commit_count", T_LONGLONG, offsetof(EngineObject, commit_count),
     READONLY, NULL},
    {"num_rows", T_PYSSIZET, offsetof(EngineObject, num_rows), READONLY,
     NULL},
    {"model", T_INT, offsetof(EngineObject, model), READONLY, NULL},
    {NULL}
};

static PyTypeObject Engine_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._cext.Engine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled booking engine for one scheduling run.",
    .tp_methods = Engine_methods,
    .tp_members = Engine_members,
    .tp_new = Engine_new,
};

/* ------------------------------------------------------------------ */
/* OneShot: TimedKernel.propagate_kahn over a packed successor CSR    */
/* ------------------------------------------------------------------ */

/* Built once per kernel from its from_decisions arrays.  Each node's
 * row lists its constraint successors in the order the Python loop
 * walks them (graph successors, then the processor / send / receive
 * next pointers), so the LIFO ready stack pops the same node sequence
 * and every node gets the same float max and the same single + . */
typedef struct {
    PyObject_HEAD
    Py_ssize_t n;         /* tasks */
    Py_ssize_t size;      /* nodes: n tasks + m transfer slots */
    Py_ssize_t total;     /* live nodes: tasks + active slots */
    Py_ssize_t nentries;
    Py_ssize_t *ptr;      /* size + 1 */
    Py_ssize_t *adj;      /* ptr[size] successor node indices */
    Py_ssize_t *indeg;    /* size: constraint in-degrees */
    Py_ssize_t *entries;  /* in-degree-zero base entries, in base order */
} OneShotObject;

static void
OneShot_dealloc(OneShotObject *self)
{
    PyMem_Free(self->ptr);
    PyMem_Free(self->adj);
    PyMem_Free(self->indeg);
    PyMem_Free(self->entries);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* index arrays are bounds-checked here once, so run() need not */
static int
check_range(const Py_ssize_t *a, Py_ssize_t len, Py_ssize_t lo,
            Py_ssize_t hi, const char *name)
{
    for (Py_ssize_t i = 0; i < len; i++) {
        if (a[i] < lo || a[i] >= hi) {
            PyErr_Format(PyExc_ValueError, "%s[%zd] = %zd out of range", name,
                         i, a[i]);
            return -1;
        }
    }
    return 0;
}

static PyObject *
OneShot_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Py_ssize_t n, m;
    PyObject *sptr_o, *seix_o, *edst_o, *nproc_o, *nsend_o, *nrecv_o;
    PyObject *indeg_o, *entries_o;
    Py_buffer active;
    if (!PyArg_ParseTuple(args, "nnOOOy*OOOOO:OneShot", &n, &m, &sptr_o,
                          &seix_o, &edst_o, &active, &nproc_o, &nsend_o,
                          &nrecv_o, &indeg_o, &entries_o))
        return NULL;
    OneShotObject *self = NULL;
    Py_ssize_t *tmp = NULL;
    PyObject *entries = NULL;
    if (n < 0 || m < 0 || active.len != m) {
        PyErr_SetString(PyExc_ValueError, "bad one-shot dimensions");
        goto fail;
    }
    const unsigned char *act = active.buf;
    Py_ssize_t size = n + m;
    /* scratch: succ_ptr (n+1), succ_eix, edst, next_send, next_recv (m
     * each), next_proc (n) */
    tmp = PyMem_Malloc((size_t)(2 * n + 1 + 4 * m) * sizeof(Py_ssize_t));
    if (tmp == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    Py_ssize_t *sptr = tmp, *seix = sptr + n + 1, *edst = seix + m;
    Py_ssize_t *nsend = edst + m, *nrecv = nsend + m, *nproc = nrecv + m;
    if (fill_ssizes(sptr_o, sptr, n + 1, "succ_ptr") < 0 ||
        fill_ssizes(seix_o, seix, m, "succ_eix") < 0 ||
        fill_ssizes(edst_o, edst, m, "edst") < 0 ||
        fill_ssizes(nproc_o, nproc, n, "next_proc") < 0 ||
        fill_ssizes(nsend_o, nsend, m, "next_send") < 0 ||
        fill_ssizes(nrecv_o, nrecv, m, "next_recv") < 0)
        goto fail;
    for (Py_ssize_t i = 0; i <= n; i++) {
        if (sptr[i] < 0 || sptr[i] > m || (i && sptr[i] < sptr[i - 1])) {
            PyErr_SetString(PyExc_ValueError, "succ_ptr not monotone");
            goto fail;
        }
    }
    /* next pointers: any negative value means "none" */
    if (check_range(seix, sptr[n], 0, m, "succ_eix") < 0 ||
        check_range(edst, m, 0, n, "edst") < 0 ||
        check_range(nproc, n, PY_SSIZE_T_MIN, size, "next_proc") < 0 ||
        check_range(nsend, m, PY_SSIZE_T_MIN, size, "next_send") < 0 ||
        check_range(nrecv, m, PY_SSIZE_T_MIN, size, "next_recv") < 0)
        goto fail;

    self = (OneShotObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        goto fail;
    self->n = n;
    self->size = size;
    Py_ssize_t cnt = sptr[n], live = n;
    for (Py_ssize_t i = 0; i < n; i++)
        cnt += nproc[i] >= 0;
    for (Py_ssize_t e = 0; e < m; e++) {
        if (act[e]) {
            live++;
            cnt += 1 + (nsend[e] >= 0) + (nrecv[e] >= 0);
        }
    }
    self->total = live;
    self->ptr = PyMem_Malloc((size_t)(size + 1) * sizeof(Py_ssize_t));
    self->adj = PyMem_Malloc((size_t)(cnt ? cnt : 1) * sizeof(Py_ssize_t));
    self->indeg = PyMem_Malloc((size_t)(size ? size : 1) * sizeof(Py_ssize_t));
    if (!self->ptr || !self->adj || !self->indeg) {
        PyErr_NoMemory();
        goto fail;
    }
    if (fill_ssizes(indeg_o, self->indeg, size, "indeg") < 0)
        goto fail;
    Py_ssize_t *ptr = self->ptr, *adj = self->adj, k = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        ptr[i] = k;
        for (Py_ssize_t j = sptr[i]; j < sptr[i + 1]; j++) {
            Py_ssize_t e = seix[j];
            adj[k++] = act[e] ? n + e : edst[e];
        }
        if (nproc[i] >= 0)
            adj[k++] = nproc[i];
    }
    for (Py_ssize_t e = 0; e < m; e++) {
        ptr[n + e] = k;
        if (act[e]) {
            adj[k++] = edst[e];
            if (nsend[e] >= 0)
                adj[k++] = nsend[e];
            if (nrecv[e] >= 0)
                adj[k++] = nrecv[e];
        }
    }
    ptr[size] = k;

    entries = PySequence_Fast(entries_o, "base_entries must be a sequence");
    if (entries == NULL)
        goto fail;
    Py_ssize_t ne = PySequence_Fast_GET_SIZE(entries);
    self->entries = PyMem_Malloc((size_t)(ne ? ne : 1) * sizeof(Py_ssize_t));
    if (self->entries == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    if (fill_ssizes(entries, self->entries, ne, "base_entries") < 0 ||
        check_range(self->entries, ne, 0, size, "base_entries") < 0)
        goto fail;
    /* the ready list starts as the entries with no order predecessor */
    Py_ssize_t kept = 0;
    for (Py_ssize_t j = 0; j < ne; j++) {
        if (self->indeg[self->entries[j]] == 0)
            self->entries[kept++] = self->entries[j];
    }
    self->nentries = kept;
    Py_DECREF(entries);
    PyMem_Free(tmp);
    PyBuffer_Release(&active);
    return (PyObject *)self;

fail:
    Py_XDECREF(entries);
    Py_XDECREF(self);
    PyMem_Free(tmp);
    PyBuffer_Release(&active);
    return NULL;
}

/* run(dur, start, finish) -> makespan.  start / finish are lists of
 * size entries that receive the visited nodes' times, or None. */
static PyObject *
OneShot_run(OneShotObject *self, PyObject *args)
{
    PyObject *dur_o, *start, *finish;
    if (!PyArg_ParseTuple(args, "OOO:run", &dur_o, &start, &finish))
        return NULL;
    const Py_ssize_t n = self->n, size = self->size;
    PyObject *dur = PySequence_Fast(dur_o, "dur must be a sequence");
    if (dur == NULL)
        return NULL;
    double *est = NULL;
    Py_ssize_t *deg = NULL;
    if (PySequence_Fast_GET_SIZE(dur) != size) {
        PyErr_Format(PyExc_ValueError, "dur has %zd entries, expected %zd",
                     PySequence_Fast_GET_SIZE(dur), size);
        goto fail;
    }
    if (check_out(start, size, "out_start") < 0 ||
        check_out(finish, size, "out_finish") < 0)
        goto fail;
    if (start == Py_None)
        start = NULL;
    if (finish == Py_None)
        finish = NULL;
    /* per-call scratch: est (size, zeroed) + task finishes (n); the
     * in-degree countdown (size) + the ready stack (size + entries:
     * each node is pushed at most once, entries at the start) */
    est = PyMem_Calloc((size_t)(size + n + 1), sizeof(double));
    deg = PyMem_Malloc((size_t)(2 * size + self->nentries + 1) *
                       sizeof(Py_ssize_t));
    if (est == NULL || deg == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    double *fin = est + size;
    Py_ssize_t *stack = deg + size;
    memcpy(deg, self->indeg, (size_t)size * sizeof(Py_ssize_t));
    memcpy(stack, self->entries, (size_t)self->nentries * sizeof(Py_ssize_t));
    const Py_ssize_t *ptr = self->ptr, *adj = self->adj;
    Py_ssize_t top = self->nentries, done = 0;
    while (top) {
        Py_ssize_t node = stack[--top];
        double s = est[node];
        if (start && set_float(start, node, s) < 0)
            goto fail;
        /* re-read per node: a finalizer run above may have resized dur */
        if (node >= PySequence_Fast_GET_SIZE(dur)) {
            PyErr_SetString(PyExc_IndexError, "dur changed size");
            goto fail;
        }
        PyObject *item = PySequence_Fast_GET_ITEM(dur, node);
        double d;
        if (PyFloat_Check(item)) {
            d = PyFloat_AS_DOUBLE(item);
        }
        else if (PyLong_Check(item)) {
            d = PyLong_AsDouble(item);
            if (d == -1.0 && PyErr_Occurred())
                goto fail;
        }
        else {
            PyErr_Format(PyExc_TypeError,
                         "dur entries must be int or float, not %.100s",
                         Py_TYPE(item)->tp_name);
            goto fail;
        }
        double f = s + d;
        if (finish && set_float(finish, node, f) < 0)
            goto fail;
        if (node < n)
            fin[node] = f;
        done++;
        for (Py_ssize_t k = ptr[node]; k < ptr[node + 1]; k++) {
            Py_ssize_t nxt = adj[k];
            if (f > est[nxt])
                est[nxt] = f;
            if (--deg[nxt] == 0)
                stack[top++] = nxt;
        }
    }
    if (done != self->total) {
        PyErr_SetString(SCHED_ERR, "constraint DAG has a cycle: the decision "
                                   "orders are inconsistent");
        goto fail;
    }
    /* max(finish[:n], default=0.0): first element, then strictly greater */
    double ms = 0.0;
    if (n) {
        ms = fin[0];
        for (Py_ssize_t i = 1; i < n; i++)
            if (fin[i] > ms)
                ms = fin[i];
    }
    PyMem_Free(est);
    PyMem_Free(deg);
    Py_DECREF(dur);
    return PyFloat_FromDouble(ms);

fail:
    PyMem_Free(est);
    PyMem_Free(deg);
    Py_DECREF(dur);
    return NULL;
}

static PyMethodDef OneShot_methods[] = {
    {"run", (PyCFunction)OneShot_run, METH_VARARGS, NULL},
    {NULL}
};

static PyTypeObject OneShot_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._cext.OneShot",
    .tp_basicsize = sizeof(OneShotObject),
    .tp_dealloc = (destructor)OneShot_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Packed one-shot constraint DAG of one TimedKernel.",
    .tp_methods = OneShot_methods,
    .tp_new = OneShot_new,
};

/* ------------------------------------------------------------------ */
/* records: schedule output tuples                                    */
/* ------------------------------------------------------------------ */

/* records(cls, rows) == [tuple.__new__(cls, row) for row in rows] for a
 * tuple subclass without instance slots (TaskPlacement, CommEvent) and
 * tuple rows, all-atomic records untracked (new_record); replay builds
 * thousands of them per call. */
static PyObject *
cext_records(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyTypeObject *cls;
    PyObject *rows;
    if (!PyArg_ParseTuple(args, "O!O:records", &PyType_Type, &cls, &rows))
        return NULL;
    if (check_record_cls(cls) < 0)
        return NULL;
    PyObject *out = PyList_New(0);
    PyObject *it = out ? PyObject_GetIter(rows) : NULL;
    if (it == NULL) {
        Py_XDECREF(out);
        return NULL;
    }
    PyObject *row;
    while ((row = PyIter_Next(it)) != NULL) {
        if (!PyTuple_CheckExact(row)) {
            PyErr_Format(PyExc_TypeError, "records: row must be a tuple, not %s",
                         Py_TYPE(row)->tp_name);
            Py_DECREF(row);
            break;
        }
        PyObject *rec = new_record(cls, PySequence_Fast_ITEMS(row),
                                   PyTuple_GET_SIZE(row));
        Py_DECREF(row);
        if (rec == NULL)
            break;
        int rc = PyList_Append(out, rec);
        Py_DECREF(rec);
        if (rc < 0)
            break;
    }
    Py_DECREF(it);
    if (PyErr_Occurred()) {
        Py_DECREF(out);
        return NULL;
    }
    return out;
}

/* ------------------------------------------------------------------ */
/* module                                                             */
/* ------------------------------------------------------------------ */

static PyObject *
cext_set_exceptions(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *sched, *timeline, *platform;
    if (!PyArg_ParseTuple(args, "OOO:_set_exceptions", &sched, &timeline,
                          &platform))
        return NULL;
    Py_INCREF(sched);
    Py_XSETREF(SchedulingErr, sched);
    Py_INCREF(timeline);
    Py_XSETREF(TimelineErr, timeline);
    Py_INCREF(platform);
    Py_XSETREF(PlatformErr, platform);
    Py_RETURN_NONE;
}

static PyObject *
cext_build_info(PyObject *Py_UNUSED(mod), PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue(
        "{s:s,s:s,s:s}",
        "compiler",
#if defined(__clang_version__)
        "clang " __clang_version__,
#elif defined(__VERSION__)
        "gcc " __VERSION__,
#else
        "unknown",
#endif
        "built", __DATE__ " " __TIME__,
        "python", PY_VERSION);
}

static PyMethodDef cext_methods[] = {
    {"_set_exceptions", cext_set_exceptions, METH_VARARGS,
     "Install the repro exception types used by the engine."},
    {"build_info", cext_build_info, METH_NOARGS,
     "Compiler / build provenance of this extension."},
    {"records", cext_records, METH_VARARGS,
     "records(cls, rows): tuple.__new__(cls, row) per row; all-atomic "
     "records are left untracked by the cyclic collector."},
    {NULL}
};

static struct PyModuleDef cext_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.kernel._cext",
    .m_doc = "Compiled booking-loop engine (see module source).",
    .m_size = -1,
    .m_methods = cext_methods,
};

PyMODINIT_FUNC
PyInit__cext(void)
{
    if (PyType_Ready(&Statics_Type) < 0 || PyType_Ready(&Engine_Type) < 0 ||
        PyType_Ready(&OneShot_Type) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&cext_module);
    if (mod == NULL)
        return NULL;
    Py_INCREF(&Statics_Type);
    if (PyModule_AddObject(mod, "Statics", (PyObject *)&Statics_Type) < 0) {
        Py_DECREF(&Statics_Type);
        Py_DECREF(mod);
        return NULL;
    }
    Py_INCREF(&Engine_Type);
    if (PyModule_AddObject(mod, "Engine", (PyObject *)&Engine_Type) < 0) {
        Py_DECREF(&Engine_Type);
        Py_DECREF(mod);
        return NULL;
    }
    Py_INCREF(&OneShot_Type);
    if (PyModule_AddObject(mod, "OneShot", (PyObject *)&OneShot_Type) < 0) {
        Py_DECREF(&OneShot_Type);
        Py_DECREF(mod);
        return NULL;
    }
    if (PyModule_AddIntConstant(mod, "MODEL_MACRO", MODEL_MACRO) < 0 ||
        PyModule_AddIntConstant(mod, "MODEL_ONE_PORT", MODEL_ONE_PORT) < 0 ||
        PyModule_AddIntConstant(mod, "MODEL_UNI_PORT", MODEL_UNI_PORT) < 0 ||
        PyModule_AddIntConstant(mod, "MODEL_NO_OVERLAP",
                                MODEL_NO_OVERLAP) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
