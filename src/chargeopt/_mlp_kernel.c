/* Compiled MLP arithmetic: one epoch of mini-batch SGD, and predict_batch.
 *
 * Mirrors the NumPy definition in thermal.py and learning.py operation for
 * operation, so that both give the same bits:
 * - every affine layer is the left fold over its inputs, then the bias
 *   (thermal.fold and thermal.mlp_forward); the backpropagated error is the
 *   left fold over a layer's outputs, and every gradient sum the left fold
 *   over the rows of the batch, in row order (learning.mlp_gradients);
 * - the sigmoid is 1 / (1 + exp(-z)) with thermal.explicit_exp, nearbyint
 *   standing for np.rint (both round to nearest even) and floor for
 *   np.floor;
 * - the compiler fuses no multiply and add (setup.py builds with
 *   -ffp-contract=off).
 * Activations and errors of a block of nb rows are (width, nb) arrays, so
 * that each inner loop runs along the rows, or along a layer's outputs, with
 * one independent element per iteration; GCC vectorizes such a loop without
 * changing the operations of any element. -fno-trapping-math lets it turn the
 * clamps of explicit_exp into selects; it changes no value. The loops are
 * compiled twice, for the baseline target and for AVX-512F, and the second
 * runs where PyInit finds AVX-512F (module constant LANES is then 8, else 1).
 * Neither uses libm's exp, BLAS or threads, so the bits depend on neither
 * the CPU nor the BLAS thread count.
 *
 * The parameters of a network are one flat float64 vector, each layer's
 * weights (fan_in, fan_out) in row-major order followed by its bias
 * (learning._layer_views, thermal._flat_parameters), and its int64 widths,
 * inputs first and one output last. Hidden layers are sigmoid units, the
 * output is linear; one layer is the linear model.
 *
 * The binding checks every buffer's item type, dimensions, contiguity and
 * shape, the widths against the parameter count and every index it reads
 * (the permutation and the feature columns) before it runs a loop with the
 * GIL released; the loops do no bounds checks.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) && defined(__x86_64__)
#define HAVE_AVX512 1
#endif

/* Inlined into both compiled variants, so each vectorizes its own copy. */
#define INLINE static inline __attribute__((always_inline))

/* The constants of thermal.explicit_exp. */
static const double EXP_Z_MIN = -750.0;
static const double EXP_Z_MAX = 710.0;
static const double LOG2_E = 1.4426950408889634;
static const double LN2_HI = 6.93147180369123816490e-01;
static const double LN2_LO = 1.90821492927058770002e-10;
static const double EXP_BIAS_SHIFTER = 4503599627371519.0; /* 2^52 + 1023 */

/* 2^m for integer-valued m in [-1022, 1023], from its exponent bits; no float
 * is converted to an integer, so a NaN m needs no special case. */
INLINE double
pow2(double m)
{
    double t = m + EXP_BIAS_SHIFTER;
    uint64_t bits;
    memcpy(&bits, &t, sizeof bits);
    bits <<= 52;
    memcpy(&t, &bits, sizeof t);
    return t;
}

INLINE double
explicit_exp(double z)
{
    z = z < EXP_Z_MIN ? EXP_Z_MIN : z; /* NaN fails both tests and passes */
    z = z > EXP_Z_MAX ? EXP_Z_MAX : z;
    const double k = nearbyint(z * LOG2_E);
    const double r = (z - k * LN2_HI) - k * LN2_LO;
    /* Horner's rule on 1/13!, ..., 1/1!, 1/0!, each correctly rounded */
    double p = 1.6059043836821613e-10;
    p = p * r + 2.08767569878681e-09;
    p = p * r + 2.505210838544172e-08;
    p = p * r + 2.755731922398589e-07;
    p = p * r + 2.7557319223985893e-06;
    p = p * r + 2.48015873015873e-05;
    p = p * r + 0.0001984126984126984;
    p = p * r + 0.001388888888888889;
    p = p * r + 0.008333333333333333;
    p = p * r + 0.041666666666666664;
    p = p * r + 0.16666666666666666;
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    const double k1 = floor(k * 0.5);
    return (p * pow2(k1)) * pow2(k - k1);
}

/* z[o, r] = the left fold over i of w[i * in_stride + o * out_stride] * a[i, r],
 * for n_in inputs a (n_in, nb) and n_out outputs z (n_out, nb). */
INLINE void
fold(const double *restrict w, Py_ssize_t n_in, Py_ssize_t in_stride, Py_ssize_t n_out,
     Py_ssize_t out_stride, const double *restrict a, Py_ssize_t nb, double *restrict z)
{
    for (Py_ssize_t o = 0; o < n_out; o++) {
        double *restrict zo = z + o * nb;
        const double w0 = w[o * out_stride];
        for (Py_ssize_t r = 0; r < nb; r++)
            zo[r] = w0 * a[r];
        for (Py_ssize_t i = 1; i < n_in; i++) {
            const double wi = w[i * in_stride + o * out_stride];
            const double *restrict ai = a + i * nb;
            for (Py_ssize_t r = 0; r < nb; r++)
                zo[r] += wi * ai[r];
        }
    }
}

/* A network: n_layers + 1 widths, one flat parameter vector. */
typedef struct {
    const int64_t *widths;
    Py_ssize_t n_layers;
} Net;

/* The activations of every layer for nb rows, one (width, nb) array after
 * another in acts; the caller fills layer 0. Returns the output row. */
INLINE const double *
forward(const Net *net, const double *params, double *acts, Py_ssize_t nb)
{
    const double *w = params;
    double *a = acts;
    for (Py_ssize_t l = 0; l < net->n_layers; l++) {
        const Py_ssize_t fi = net->widths[l], fo = net->widths[l + 1];
        const double *b = w + fi * fo;
        double *z = a + fi * nb;
        fold(w, fi, fo, fo, 1, a, nb, z);
        for (Py_ssize_t k = 0; k < fo; k++) {
            for (Py_ssize_t r = 0; r < nb; r++)
                z[k * nb + r] += b[k];
        }
        if (l < net->n_layers - 1) {
            for (Py_ssize_t i = 0; i < fo * nb; i++)
                z[i] = 1.0 / (explicit_exp(-z[i]) + 1.0);
        }
        w = b + fo;
        a = z;
    }
    return a;
}

/* The arguments and scratch space of one SGD epoch. */
typedef struct {
    Net net;
    double *params, *grads;
    Py_ssize_t n_params;
    const double *x, *y;
    const int64_t *perm;
    double *pred;
    Py_ssize_t n, batch;
    double lr;
    /* every layer's activations over a batch; one layer's error, (width, nb)
     * twice (this layer's and the one below) and (nb, width) once */
    double *acts, *delta, *next, *delta_t;
} Epoch;

/* SGD steps over the rows perm[0..n), batch rows at a time, as
 * learning.fit_mlp's NumPy loop; pred[s] gets the prediction for row
 * perm[s] that its step computed before updating. */
INLINE void
epoch_body(const Epoch *e)
{
    const Net *net = &e->net;
    const Py_ssize_t n_layers = net->n_layers, f = net->widths[0];
    for (Py_ssize_t start = 0; start < e->n; start += e->batch) {
        const Py_ssize_t nb = e->n - start < e->batch ? e->n - start : e->batch;
        const int64_t *rows = e->perm + start;
        for (Py_ssize_t j = 0; j < f; j++) {
            for (Py_ssize_t r = 0; r < nb; r++)
                e->acts[j * nb + r] = e->x[rows[r] * f + j];
        }
        const double *out = forward(net, e->params, e->acts, nb);
        const double c = 2.0 / (double)nb;
        double *delta = e->delta, *next = e->next, *delta_t = e->delta_t;
        for (Py_ssize_t r = 0; r < nb; r++) {
            e->pred[start + r] = out[r];
            delta[r] = c * (out[r] - e->y[rows[r]]);
        }
        /* layer l's parameters and activations end where layer l + 1's start */
        Py_ssize_t p_end = e->n_params, a_end = out - e->acts;
        for (Py_ssize_t l = n_layers - 1; l >= 0; l--) {
            const Py_ssize_t fi = net->widths[l], fo = net->widths[l + 1];
            const Py_ssize_t p0 = p_end - fi * fo - fo, a0 = a_end - fi * nb;
            const double *w = e->params + p0, *a = e->acts + a0;
            double *gw = e->grads + p0, *gb = gw + fi * fo;
            for (Py_ssize_t k = 0; k < fo; k++) {
                for (Py_ssize_t r = 0; r < nb; r++)
                    delta_t[r * fo + k] = delta[k * nb + r];
            }
            for (Py_ssize_t j = 0; j < fi; j++) {
                for (Py_ssize_t k = 0; k < fo; k++)
                    gw[j * fo + k] = a[j * nb] * delta_t[k];
            }
            for (Py_ssize_t k = 0; k < fo; k++)
                gb[k] = delta_t[k];
            for (Py_ssize_t r = 1; r < nb; r++) {
                const double *dr = delta_t + r * fo;
                for (Py_ssize_t j = 0; j < fi; j++) {
                    const double ajr = a[j * nb + r];
                    for (Py_ssize_t k = 0; k < fo; k++)
                        gw[j * fo + k] += ajr * dr[k];
                }
                for (Py_ssize_t k = 0; k < fo; k++)
                    gb[k] += dr[k];
            }
            if (l > 0) {
                fold(w, fo, 1, fi, fo, delta, nb, next);
                for (Py_ssize_t i = 0; i < fi * nb; i++)
                    next[i] = (next[i] * a[i]) * (1.0 - a[i]); /* sigmoid derivative */
                double *t = delta;
                delta = next;
                next = t;
            }
            p_end = p0;
            a_end = a0;
        }
        for (Py_ssize_t i = 0; i < e->n_params; i++)
            e->params[i] -= e->lr * e->grads[i];
    }
}

/* The arguments and scratch space of one predict call. */
typedef struct {
    Net net;
    const double *params, *x, *means, *stds;
    const int64_t *cols;
    Py_ssize_t m, n_cols;
    double *out, *acts;
} Predict;

/* np.nan, the NaN predict writes for every NaN result: which of two NaN
 * operands an IEEE operation returns is left open, and compilers order the
 * operands of a commutative operation freely, so NaNs from the two paths
 * could otherwise differ in sign. */
INLINE double
quiet_nan(void)
{
    const uint64_t bits = UINT64_C(0x7ff8000000000000);
    double nan;
    memcpy(&nan, &bits, sizeof nan);
    return nan;
}

/* Rows per block of predict: the activations of a 2x10 network over a block
 * stay within a 32 KB L1 data cache. Every row is computed alone, so the
 * block size changes no bits. */
#define PREDICT_BLOCK_ROWS 128

INLINE void
predict_body(const Predict *p)
{
    const Py_ssize_t f = p->net.widths[0];
    for (Py_ssize_t start = 0; start < p->m; start += PREDICT_BLOCK_ROWS) {
        const Py_ssize_t nb = p->m - start < PREDICT_BLOCK_ROWS ? p->m - start : PREDICT_BLOCK_ROWS;
        const double *x = p->x + start * p->n_cols;
        for (Py_ssize_t j = 0; j < f; j++) {
            const int64_t col = p->cols[j];
            for (Py_ssize_t r = 0; r < nb; r++)
                p->acts[j * nb + r] = (x[r * p->n_cols + col] - p->means[j]) / p->stds[j];
        }
        const double *out = forward(&p->net, p->params, p->acts, nb);
        for (Py_ssize_t r = 0; r < nb; r++)
            p->out[start + r] = out[r] != out[r] ? quiet_nan() : out[r];
    }
}

static void
epoch_base(const Epoch *e)
{
    epoch_body(e);
}

static void
predict_base(const Predict *p)
{
    predict_body(p);
}

#ifdef HAVE_AVX512
__attribute__((target("avx512f"))) static void
epoch_avx512(const Epoch *e)
{
    epoch_body(e);
}

__attribute__((target("avx512f"))) static void
predict_avx512(const Predict *p)
{
    predict_body(p);
}
#endif

/* The variants PyInit picks: AVX-512F where the CPU has it. */
static int lanes = 1;
static void (*run_epoch)(const Epoch *) = epoch_base;
static void (*run_predict)(const Predict *) = predict_base;

/* ---- binding ---- */

typedef struct {
    const char *name;
    char kind; /* 'd' float64 or 'q' int64 */
    int ndim;
    int writable;
} Spec;

static int
get_array(const char *func, PyObject *obj, const Spec *spec, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *fmt = view->format != NULL ? view->format : "B";
    if (fmt[0] == '@')
        fmt++;
    /* int64 is 'l' where long has 64 bits (Linux), 'q' elsewhere */
    const char *accepted = spec->kind == 'd' ? "d" : "lq";
    if (view->itemsize != 8 || strlen(fmt) != 1 || strchr(accepted, fmt[0]) == NULL) {
        PyErr_Format(PyExc_TypeError,
                     "%s: %s has item format '%s' of %zd bytes, expected one of '%s' of 8 bytes",
                     func, spec->name, fmt, view->itemsize, accepted);
    }
    else if (view->ndim != spec->ndim) {
        PyErr_Format(PyExc_ValueError, "%s: %s has %d dimensions, expected %d", func,
                     spec->name, view->ndim, spec->ndim);
    }
    else if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s: %s is not C-contiguous", func, spec->name);
    }
    else if (spec->writable && view->readonly) {
        PyErr_Format(PyExc_ValueError, "%s: %s is read-only", func, spec->name);
    }
    else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

static void
release_all(Py_buffer *views, int n)
{
    for (int i = 0; i < n; i++) {
        if (views[i].obj != NULL)
            PyBuffer_Release(&views[i]);
    }
}

static int
check_length(const char *func, const Py_buffer *view, const char *name, int axis, Py_ssize_t want)
{
    if (view->shape[axis] == want)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s: %s has %zd entries along axis %d, expected %zd", func,
                 name, view->shape[axis], axis, want);
    return -1;
}

/* Checks the widths (at least two, each >= 1, one output) against a
 * parameter vector of n_params entries, and sets *max_width and *sum_width.
 * Sizes are bounded by n_params, which is the length of a buffer, so the
 * products below do not overflow once each width is known to fit. */
static int
check_net(const char *func, const Net *net, Py_ssize_t n_params, Py_ssize_t *max_width,
          Py_ssize_t *sum_width)
{
    if (net->n_layers < 1) {
        PyErr_Format(PyExc_ValueError, "%s: widths needs at least 2 entries", func);
        return -1;
    }
    Py_ssize_t total = 0, widest = 0, sum = 0;
    for (Py_ssize_t l = 0; l <= net->n_layers; l++) {
        const int64_t w = net->widths[l];
        if (w < 1 || w > n_params) {
            PyErr_Format(PyExc_ValueError, "%s: widths[%zd] = %lld is not in [1, %zd]", func, l,
                         (long long)w, n_params);
            return -1;
        }
        widest = w > widest ? w : widest;
        sum += w;
        if (l > 0) {
            const Py_ssize_t fi = net->widths[l - 1];
            if (fi > (n_params - total) / w) { /* fi * w alone exceeds what is left */
                total = n_params + 1;
                break;
            }
            total += fi * w + w;
            if (total > n_params)
                break;
        }
    }
    if (total != n_params) {
        PyErr_Format(PyExc_ValueError, "%s: %zd parameters do not fit the widths", func, n_params);
        return -1;
    }
    if (net->widths[net->n_layers] != 1) {
        PyErr_Format(PyExc_ValueError, "%s: the last width is %lld, expected 1 output", func,
                     (long long)net->widths[net->n_layers]);
        return -1;
    }
    *max_width = widest;
    *sum_width = sum;
    return 0;
}

/* Index of the first value outside [0, bound), or -1. */
static Py_ssize_t
first_out_of_range(const int64_t *values, Py_ssize_t n, int64_t bound)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        if (values[i] < 0 || values[i] >= bound)
            return i;
    }
    return -1;
}

/* n doubles of scratch, or NULL with MemoryError set; n * 8 bytes must not
 * overflow, which the callers' bounds on n guarantee. */
static double *
alloc_doubles(Py_ssize_t n)
{
    double *buf = PyMem_RawMalloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (buf == NULL)
        PyErr_NoMemory();
    return buf;
}

enum { E_PARAMS, E_WIDTHS, E_X, E_Y, E_PERM, E_PRED, E_N };

static const Spec EPOCH_SPECS[E_N] = {
    [E_PARAMS] = {"params", 'd', 1, 1},
    [E_WIDTHS] = {"widths", 'q', 1, 0},
    [E_X] = {"x", 'd', 2, 0},
    [E_Y] = {"y", 'd', 1, 0},
    [E_PERM] = {"perm", 'q', 1, 0},
    [E_PRED] = {"pred", 'd', 1, 1},
};

PyDoc_STRVAR(sgd_epoch_doc,
"sgd_epoch(params, widths, x, y, perm, pred, learning_rate, batch_size)\n"
"\n"
"One epoch of mini-batch SGD on the mean squared error, as learning.fit_mlp's\n"
"NumPy loop: the rows perm[0..n) in order, batch_size rows per step, each\n"
"step subtracting learning_rate times learning.mlp_gradients from params in\n"
"place. pred[s] gets the prediction for row perm[s] made by its step. params\n"
"is the flat float64 parameter vector of the network with int64 widths\n"
"(inputs first, 1 output last); x is float64 (n, widths[0]), y and pred\n"
"float64 (n,), perm an int64 (n,) array of row indices.");

static PyObject *
py_sgd_epoch(PyObject *self, PyObject *args)
{
    (void)self;
    const char *func = "sgd_epoch";
    PyObject *objs[E_N];
    double lr;
    Py_ssize_t batch;
    if (!PyArg_ParseTuple(args, "OOOOOOdn:sgd_epoch", &objs[E_PARAMS], &objs[E_WIDTHS],
                          &objs[E_X], &objs[E_Y], &objs[E_PERM], &objs[E_PRED], &lr, &batch))
        return NULL;
    Py_buffer views[E_N];
    memset(views, 0, sizeof(views));
    PyObject *result = NULL;
    double *scratch = NULL;
    for (int i = 0; i < E_N; i++) {
        if (get_array(func, objs[i], &EPOCH_SPECS[i], &views[i]) < 0)
            goto done;
    }
    const Net net = {views[E_WIDTHS].buf, views[E_WIDTHS].shape[0] - 1};
    const Py_ssize_t n_params = views[E_PARAMS].shape[0];
    Py_ssize_t max_width, sum_width;
    if (check_net(func, &net, n_params, &max_width, &sum_width) < 0)
        goto done;
    const Py_ssize_t n = views[E_X].shape[0];
    if (check_length(func, &views[E_X], "x", 1, net.widths[0]) < 0
        || check_length(func, &views[E_Y], "y", 0, n) < 0
        || check_length(func, &views[E_PERM], "perm", 0, n) < 0
        || check_length(func, &views[E_PRED], "pred", 0, n) < 0)
        goto done;
    if (batch < 1) {
        PyErr_Format(PyExc_ValueError, "%s: batch_size %zd is not >= 1", func, batch);
        goto done;
    }
    const int64_t *perm = views[E_PERM].buf;
    Py_ssize_t bad;
    Py_BEGIN_ALLOW_THREADS
    bad = first_out_of_range(perm, n, n);
    Py_END_ALLOW_THREADS
    if (bad >= 0) {
        PyErr_Format(PyExc_ValueError, "%s: perm[%zd] = %lld is not a row of x (n=%zd)", func,
                     bad, (long long)perm[bad], n);
        goto done;
    }
    /* acts: every layer over a batch; delta, next, delta_t: one layer's error.
     * Each width is at most n_params, and nb at most n, so the sizes are
     * bounded by sizes of buffers that exist. */
    const Py_ssize_t nb = batch < n ? batch : (n > 0 ? n : 1);
    if (sum_width > PY_SSIZE_T_MAX / 8 / 4 / nb) {
        PyErr_NoMemory();
        goto done;
    }
    const Py_ssize_t n_acts = sum_width * nb, n_err = max_width * nb;
    scratch = alloc_doubles(n_params + n_acts + 3 * n_err);
    if (scratch == NULL)
        goto done;
    const Epoch epoch = {
        .net = net,
        .params = views[E_PARAMS].buf,
        .grads = scratch,
        .n_params = n_params,
        .x = views[E_X].buf,
        .y = views[E_Y].buf,
        .perm = perm,
        .pred = views[E_PRED].buf,
        .n = n,
        .batch = batch,
        .lr = lr,
        .acts = scratch + n_params,
        .delta = scratch + n_params + n_acts,
        .next = scratch + n_params + n_acts + n_err,
        .delta_t = scratch + n_params + n_acts + 2 * n_err,
    };
    Py_BEGIN_ALLOW_THREADS
    run_epoch(&epoch);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);

done:
    PyMem_RawFree(scratch);
    release_all(views, E_N);
    return result;
}

enum { P_X, P_COLS, P_MEANS, P_STDS, P_PARAMS, P_WIDTHS, P_OUT, P_N };

static const Spec PREDICT_SPECS[P_N] = {
    [P_X] = {"x", 'd', 2, 0},
    [P_COLS] = {"cols", 'q', 1, 0},
    [P_MEANS] = {"means", 'd', 1, 0},
    [P_STDS] = {"stds", 'd', 1, 0},
    [P_PARAMS] = {"params", 'd', 1, 0},
    [P_WIDTHS] = {"widths", 'q', 1, 0},
    [P_OUT] = {"out", 'd', 1, 1},
};

PyDoc_STRVAR(predict_doc,
"predict(x, cols, means, stds, params, widths, out)\n"
"\n"
"thermal.predict_batch for a linear or MLP model: out[r] gets the network's\n"
"output for the inputs (x[r, cols[j]] - means[j]) / stds[j], and np.nan for\n"
"any NaN output. x is float64\n"
"(m, any number of columns), cols int64 (widths[0],), means and stds float64\n"
"(widths[0],), params and widths as in sgd_epoch, out float64 (m,).");

static PyObject *
py_predict(PyObject *self, PyObject *args)
{
    (void)self;
    const char *func = "predict";
    PyObject *objs[P_N];
    if (!PyArg_ParseTuple(args, "OOOOOOO:predict", &objs[P_X], &objs[P_COLS], &objs[P_MEANS],
                          &objs[P_STDS], &objs[P_PARAMS], &objs[P_WIDTHS], &objs[P_OUT]))
        return NULL;
    Py_buffer views[P_N];
    memset(views, 0, sizeof(views));
    PyObject *result = NULL;
    double *scratch = NULL;
    for (int i = 0; i < P_N; i++) {
        if (get_array(func, objs[i], &PREDICT_SPECS[i], &views[i]) < 0)
            goto done;
    }
    const Net net = {views[P_WIDTHS].buf, views[P_WIDTHS].shape[0] - 1};
    const Py_ssize_t n_params = views[P_PARAMS].shape[0];
    Py_ssize_t max_width, sum_width;
    if (check_net(func, &net, n_params, &max_width, &sum_width) < 0)
        goto done;
    const Py_ssize_t m = views[P_X].shape[0], n_cols = views[P_X].shape[1];
    const Py_ssize_t f = net.widths[0];
    if (check_length(func, &views[P_COLS], "cols", 0, f) < 0
        || check_length(func, &views[P_MEANS], "means", 0, f) < 0
        || check_length(func, &views[P_STDS], "stds", 0, f) < 0
        || check_length(func, &views[P_OUT], "out", 0, m) < 0)
        goto done;
    const int64_t *cols = views[P_COLS].buf;
    const Py_ssize_t bad = first_out_of_range(cols, f, n_cols);
    if (bad >= 0) {
        PyErr_Format(PyExc_ValueError, "%s: cols[%zd] = %lld is not a column of x (%zd columns)",
                     func, bad, (long long)cols[bad], n_cols);
        goto done;
    }
    if (sum_width > PY_SSIZE_T_MAX / 8 / PREDICT_BLOCK_ROWS) {
        PyErr_NoMemory();
        goto done;
    }
    scratch = alloc_doubles(sum_width * PREDICT_BLOCK_ROWS);
    if (scratch == NULL)
        goto done;
    const Predict predict = {
        .net = net,
        .params = views[P_PARAMS].buf,
        .x = views[P_X].buf,
        .means = views[P_MEANS].buf,
        .stds = views[P_STDS].buf,
        .cols = cols,
        .m = m,
        .n_cols = n_cols,
        .out = views[P_OUT].buf,
        .acts = scratch,
    };
    Py_BEGIN_ALLOW_THREADS
    run_predict(&predict);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);

done:
    PyMem_RawFree(scratch);
    release_all(views, P_N);
    return result;
}

static PyMethodDef methods[] = {
    {"sgd_epoch", py_sgd_epoch, METH_VARARGS, sgd_epoch_doc},
    {"predict", py_predict, METH_VARARGS, predict_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_mlp_kernel",
    .m_doc = "Compiled MLP training epoch and prediction; see thermal.py for the NumPy definition.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__mlp_kernel(void)
{
#ifdef HAVE_AVX512
    if (__builtin_cpu_supports("avx512f")) {
        lanes = 8;
        run_epoch = epoch_avx512;
        run_predict = predict_avx512;
    }
#endif
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddIntConstant(mod, "LANES", lanes) < 0)
        Py_CLEAR(mod);
    return mod;
}
