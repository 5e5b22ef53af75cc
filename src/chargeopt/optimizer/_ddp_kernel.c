/* Compiled backward-induction kernel.
 *
 * Mirrors _kernel_py.backward_pass: the same expression order,
 * (je + jd) + interpolated successor, and the same first-minimum tie rule
 * (strict <), so both kernels give bit-identical cost and action grids as
 * long as the compiler does not contract a * b + c into a fused multiply-add
 * (setup.py builds with -ffp-contract=off).
 *
 * The loop does no bounds checks. The binding checks every buffer's item
 * type, dimensions, contiguity and shape, and every valid successor corner,
 * before it runs the loop with the GIL released.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

static void
backward_loop(Py_ssize_t n_steps, Py_ssize_t m, Py_ssize_t n_actions,
              double *cost, double *action_kw, const unsigned char *valid,
              const int64_t *corner00, const double *frac_e,
              const double *frac_theta, int64_t stride_e, int64_t stride_t,
              const double *jd, const double *je, const double *p_d,
              double penalty)
{
    for (Py_ssize_t n = n_steps - 1; n >= 0; n--) {
        const double *nxt = cost + (n + 1) * m;
        const double *je_n = je + n * n_actions;
        for (Py_ssize_t cell = 0; cell < m; cell++) {
            const Py_ssize_t row = cell * n_actions;
            double best = INFINITY;
            Py_ssize_t best_k = 0;
            for (Py_ssize_t k = 0; k < n_actions; k++) {
                double cand;
                if (valid[row + k]) {
                    const int64_t c00 = corner00[row + k];
                    const double fe = frac_e[row + k];
                    const double ft = frac_theta[row + k];
                    const double lo = (1.0 - ft) * nxt[c00] + ft * nxt[c00 + stride_t];
                    const double hi = (1.0 - ft) * nxt[c00 + stride_e]
                                      + ft * nxt[c00 + stride_e + stride_t];
                    cand = (je_n[k] + jd[row + k]) + ((1.0 - fe) * lo + fe * hi);
                }
                else {
                    cand = penalty;
                }
                if (cand < best) {
                    best = cand;
                    best_k = k;
                }
            }
            cost[n * m + cell] = best;
            action_kw[n * m + cell] = p_d[best_k];
        }
    }
}

/* Index of the first valid transition whose four successor corners are not
 * all inside a cost slice of m cells, or -1 when every one is. */
static Py_ssize_t
first_bad_corner(Py_ssize_t size, Py_ssize_t m, const unsigned char *valid,
                 const int64_t *corner00, int64_t stride_e, int64_t stride_t)
{
    const int64_t limit = (int64_t)m - stride_e - stride_t;
    for (Py_ssize_t i = 0; i < size; i++) {
        if (valid[i] && (corner00[i] < 0 || corner00[i] >= limit))
            return i;
    }
    return -1;
}

enum { COST, ACTION, VALID, CORNER00, FRAC_E, FRAC_THETA, JD, JE, P_D, N_ARRAYS };

static const struct {
    const char *name;
    const char *formats; /* accepted struct-module item codes */
    Py_ssize_t itemsize;
    int ndim;
    int writable;
} SPECS[N_ARRAYS] = {
    [COST] = {"cost", "d", 8, 2, 1},
    [ACTION] = {"action_kw", "d", 8, 2, 1},
    [VALID] = {"valid", "B", 1, 2, 0},
    /* int64 is 'l' where long has 64 bits (Linux), 'q' elsewhere */
    [CORNER00] = {"corner00", "lq", 8, 2, 0},
    [FRAC_E] = {"frac_e", "d", 8, 2, 0},
    [FRAC_THETA] = {"frac_theta", "d", 8, 2, 0},
    [JD] = {"jd", "d", 8, 2, 0},
    [JE] = {"je", "d", 8, 2, 0},
    [P_D] = {"p_d", "d", 8, 1, 0},
};

static int
get_array(PyObject *obj, int which, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *name = SPECS[which].name;
    const char *fmt = view->format != NULL ? view->format : "B";
    if (fmt[0] == '@')
        fmt++;
    if (view->itemsize != SPECS[which].itemsize || strlen(fmt) != 1
        || strchr(SPECS[which].formats, fmt[0]) == NULL) {
        PyErr_Format(PyExc_TypeError,
                     "backward_pass: %s has item format '%s' of %zd bytes, "
                     "expected one of '%s' of %zd bytes",
                     name, fmt, view->itemsize, SPECS[which].formats,
                     SPECS[which].itemsize);
    }
    else if (view->ndim != SPECS[which].ndim) {
        PyErr_Format(PyExc_ValueError, "backward_pass: %s has %d dimensions, expected %d",
                     name, view->ndim, SPECS[which].ndim);
    }
    else if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "backward_pass: %s is not C-contiguous", name);
    }
    else if (SPECS[which].writable && view->readonly) {
        PyErr_Format(PyExc_ValueError, "backward_pass: %s is read-only", name);
    }
    else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

PyDoc_STRVAR(backward_pass_doc,
"backward_pass(cost, action_kw, valid, corner00, frac_e, frac_theta,\n"
"              stride_e, stride_t, jd, je, p_d, penalty)\n"
"\n"
"Backward induction over flattened state cells; fills cost[N-1..0] and\n"
"action_kw in place from cost[N]. Arguments as in _kernel_py.backward_pass:\n"
"C-contiguous float64 cost (N+1, M) and action_kw (N, M); uint8 valid,\n"
"int64 corner00 and float64 frac_e, frac_theta and jd, each (M, K);\n"
"float64 je (N, K) and p_d (K,).");

static PyObject *
py_backward_pass(PyObject *self, PyObject *args)
{
    PyObject *objs[N_ARRAYS];
    long long stride_e, stride_t;
    double penalty;
    if (!PyArg_ParseTuple(args, "OOOOOOLLOOOd:backward_pass", &objs[COST],
                          &objs[ACTION], &objs[VALID], &objs[CORNER00],
                          &objs[FRAC_E], &objs[FRAC_THETA], &stride_e, &stride_t,
                          &objs[JD], &objs[JE], &objs[P_D], &penalty))
        return NULL;

    Py_buffer views[N_ARRAYS];
    memset(views, 0, sizeof(views));
    PyObject *result = NULL;
    for (int i = 0; i < N_ARRAYS; i++) {
        if (get_array(objs[i], i, &views[i]) < 0)
            goto done;
    }

    const Py_ssize_t n_steps = views[JE].shape[0];
    const Py_ssize_t m = views[VALID].shape[0];
    const Py_ssize_t n_actions = views[JE].shape[1];
    const Py_ssize_t want[N_ARRAYS][2] = {
        [COST] = {n_steps + 1, m},
        [ACTION] = {n_steps, m},
        [VALID] = {m, n_actions},
        [CORNER00] = {m, n_actions},
        [FRAC_E] = {m, n_actions},
        [FRAC_THETA] = {m, n_actions},
        [JD] = {m, n_actions},
        [JE] = {n_steps, n_actions},
        [P_D] = {n_actions, 0},
    };
    for (int i = 0; i < N_ARRAYS; i++) {
        for (int d = 0; d < views[i].ndim; d++) {
            if (views[i].shape[d] != want[i][d]) {
                PyErr_Format(PyExc_ValueError,
                             "backward_pass: %s has %zd entries along axis %d, expected %zd "
                             "(N=%zd steps, M=%zd cells, K=%zd actions)",
                             SPECS[i].name, views[i].shape[d], d, want[i][d],
                             n_steps, m, n_actions);
                goto done;
            }
        }
    }
    if (n_actions < 1) {
        PyErr_SetString(PyExc_ValueError, "backward_pass: no actions (K=0)");
        goto done;
    }
    if (stride_e < 0 || stride_t < 0 || stride_e > m || stride_t > m) {
        PyErr_Format(PyExc_ValueError,
                     "backward_pass: strides (%lld, %lld) outside [0, M=%zd]",
                     stride_e, stride_t, m);
        goto done;
    }

    const unsigned char *valid = views[VALID].buf;
    const int64_t *corner00 = views[CORNER00].buf;
    Py_ssize_t bad;
    Py_BEGIN_ALLOW_THREADS
    bad = first_bad_corner(m * n_actions, m, valid, corner00, stride_e, stride_t);
    if (bad < 0)
        backward_loop(n_steps, m, n_actions, views[COST].buf, views[ACTION].buf,
                      valid, corner00, views[FRAC_E].buf, views[FRAC_THETA].buf,
                      stride_e, stride_t, views[JD].buf, views[JE].buf,
                      views[P_D].buf, penalty);
    Py_END_ALLOW_THREADS
    if (bad >= 0) {
        PyErr_Format(PyExc_ValueError,
                     "backward_pass: corner00[%zd, %zd] = %lld puts a successor corner "
                     "outside the %zd cells",
                     bad / n_actions, bad % n_actions, (long long)corner00[bad], m);
        goto done;
    }
    result = Py_NewRef(Py_None);

done:
    for (int i = 0; i < N_ARRAYS; i++) {
        if (views[i].obj != NULL)
            PyBuffer_Release(&views[i]);
    }
    return result;
}

static PyMethodDef methods[] = {
    {"backward_pass", py_backward_pass, METH_VARARGS, backward_pass_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ddp_kernel",
    .m_doc = "Compiled backward-induction kernel; see _kernel_py for the NumPy reference.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__ddp_kernel(void)
{
    return PyModule_Create(&module);
}
