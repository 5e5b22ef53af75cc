/* Compiled model arithmetic: one epoch of mini-batch SGD, predict_batch,
 * and the per-interval step of the circuit model and of the thermal
 * predictor (electrical.energy_step and thermal.temperature_change).
 *
 * Mirrors the NumPy definitions in electrical.py, thermal.py and
 * learning.py operation for operation, so that both give the same bits:
 * - every affine layer is the left fold over its inputs, then the bias
 *   (thermal.fold and thermal.mlp_forward); the backpropagated error is the
 *   left fold over a layer's outputs, and every gradient sum the left fold
 *   over the rows of the batch, in row order (learning.mlp_gradients);
 * - the sigmoid is 1 / (1 + exp(-z)) with thermal.explicit_exp, nearbyint
 *   standing for np.rint (both round to nearest even) and floor for
 *   np.floor;
 * - the circuit step clamps and locates each state on the table axes as
 *   electrical.interp_axis does (np.maximum, np.minimum and
 *   np.searchsorted, whose ties and NaNs the comparisons below reproduce),
 *   sums the bilinear corners in lookup_arrays' order, and solves for the
 *   current, the loss and the energy with the operations of battery_current,
 *   ohmic_loss and energy_step; sqrt is correctly rounded in IEEE 754, as
 *   np.sqrt is;
 * - the compiler fuses no multiply and add (setup.py builds with
 *   -ffp-contract=off).
 * Which of two NaN operands an IEEE operation returns is left open, and
 * compilers order the operands of a commutative operation freely, so every
 * NaN result is written as np.nan, on both paths.
 *
 * Activations and errors of a block of nb rows are (width, nb) arrays, so
 * that each inner loop runs along the rows, or along a layer's outputs, with
 * one independent element per iteration; GCC vectorizes such a loop without
 * changing the operations of any element. -fno-trapping-math lets it turn the
 * clamps of explicit_exp into selects; it changes no value. The network loops
 * are compiled twice, for the baseline target and for AVX-512F, and the second
 * runs where PyInit finds AVX-512F (module constant LANES is then 8, else 1).
 * Neither uses libm's exp, BLAS or threads, so the bits depend on neither
 * the CPU nor the BLAS thread count.
 *
 * sgd_epoch takes a network's parameters as one flat float64 vector, each
 * layer's weights (fan_in, fan_out) in row-major order followed by its bias
 * (learning._layer_views), and its int64 widths, inputs first and one output
 * last. predict and temperature_change take a model's (weights, bias) pairs
 * as they are. Hidden layers are sigmoid units, the output is linear; one
 * layer is the linear model.
 *
 * The step's inputs broadcast against its outputs as NumPy arrays do: each
 * is read through its own strides, which are 0 along the axes it is
 * broadcast over, so that no broadcast copy is made.
 *
 * The binding checks every buffer's item type, dimensions, contiguity and
 * shape, the widths against the parameters and every index it reads (the
 * permutation and the feature columns) before it runs a loop with the GIL
 * released; the loops do no bounds checks.
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

/* A network: n_layers + 1 widths, inputs first, and each layer's weights
 * (widths[l], widths[l + 1]), row-major, and bias (widths[l + 1],). */
typedef struct {
    Py_ssize_t n_layers;
    Py_ssize_t *widths;
    const double **w, **b;
} Net;

/* The activations of every layer for nb rows, one (width, nb) array after
 * another in acts; the caller fills layer 0. Returns the output row. */
INLINE const double *
forward(const Net *net, double *acts, Py_ssize_t nb)
{
    double *a = acts;
    for (Py_ssize_t l = 0; l < net->n_layers; l++) {
        const Py_ssize_t fi = net->widths[l], fo = net->widths[l + 1];
        const double *b = net->b[l];
        double *z = a + fi * nb;
        fold(net->w[l], fi, fo, fo, 1, a, nb, z);
        for (Py_ssize_t k = 0; k < fo; k++) {
            for (Py_ssize_t r = 0; r < nb; r++)
                z[k * nb + r] += b[k];
        }
        if (l < net->n_layers - 1) {
            for (Py_ssize_t i = 0; i < fo * nb; i++)
                z[i] = 1.0 / (explicit_exp(-z[i]) + 1.0);
        }
        a = z;
    }
    return a;
}

/* The arguments and scratch space of one SGD epoch. */
typedef struct {
    Net net; /* its layers are views into params */
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
        const double *out = forward(net, e->acts, nb);
        const double c = 2.0 / (double)nb;
        double *delta = e->delta, *next = e->next, *delta_t = e->delta_t;
        for (Py_ssize_t r = 0; r < nb; r++) {
            e->pred[start + r] = out[r];
            delta[r] = c * (out[r] - e->y[rows[r]]);
        }
        /* layer l's activations end where layer l + 1's start */
        Py_ssize_t a_end = out - e->acts;
        for (Py_ssize_t l = n_layers - 1; l >= 0; l--) {
            const Py_ssize_t fi = net->widths[l], fo = net->widths[l + 1];
            const Py_ssize_t a0 = a_end - fi * nb;
            const double *w = net->w[l], *a = e->acts + a0;
            double *gw = e->grads + (w - e->params), *gb = gw + fi * fo;
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
            a_end = a0;
        }
        for (Py_ssize_t i = 0; i < e->n_params; i++)
            e->params[i] -= e->lr * e->grads[i];
    }
}

/* np.nan, the NaN every result that is NaN is written as. */
INLINE double
quiet_nan(void)
{
    const uint64_t bits = UINT64_C(0x7ff8000000000000);
    double nan;
    memcpy(&nan, &bits, sizeof nan);
    return nan;
}

/* Rows per block of predict and temperature_change: the activations of a
 * 2x10 network over a block stay within a 32 KB L1 data cache. Every row is
 * computed alone, so the block size changes no bits. */
#define PREDICT_BLOCK_ROWS 128

/* The network's outputs for the nb rows whose inputs fill layer 0 of acts,
 * written to out[0..nb). */
INLINE void
predict_rows(const Net *net, double *acts, Py_ssize_t nb, double *out)
{
    const double *y = forward(net, acts, nb);
    for (Py_ssize_t r = 0; r < nb; r++)
        out[r] = y[r] != y[r] ? quiet_nan() : y[r];
}

/* The arguments and scratch space of one predict call. */
typedef struct {
    Net net;
    const double *x, *means, *stds;
    const int64_t *cols;
    Py_ssize_t m, n_cols;
    double *out, *acts;
} Predict;

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
        predict_rows(&p->net, p->acts, nb, p->out + start);
    }
}

/* NumPy's limit on the number of dimensions of an array. */
#define MAX_DIMS 64

/* The shape of a step's outputs, whose elements are walked in C order. */
typedef struct {
    int ndim;
    Py_ssize_t shape[MAX_DIMS];
    Py_ssize_t size;
} Shape;

/* A float64 input read at each element of a Shape: its byte strides along
 * the shape's axes, 0 along the axes it is broadcast over. */
typedef struct {
    const char *base;
    Py_ssize_t strides[MAX_DIMS];
} Operand;

/* The four inputs of either step. */
#define N_OPERANDS 4

/* The multi-index of an element of a Shape and the byte offset of each of
 * N_OPERANDS operands there; all zero at the first element. */
typedef struct {
    Py_ssize_t index[MAX_DIMS];
    Py_ssize_t offset[N_OPERANDS];
} Walk;

/* Moves a walk to the next element in C order. */
INLINE void
walk_next(const Shape *s, const Operand *ops, Walk *w)
{
    for (int d = s->ndim - 1; d >= 0; d--) {
        for (int k = 0; k < N_OPERANDS; k++)
            w->offset[k] += ops[k].strides[d];
        if (++w->index[d] < s->shape[d])
            return;
        w->index[d] = 0;
        for (int k = 0; k < N_OPERANDS; k++)
            w->offset[k] -= s->shape[d] * ops[k].strides[d];
    }
}

INLINE double
load(const Operand *op, const Walk *w, int k)
{
    double v;
    memcpy(&v, op[k].base + w->offset[k], sizeof v); /* a buffer need not be aligned */
    return v;
}

/* The arguments of one circuit step. */
typedef struct {
    const double *e_axis, *theta_axis, *u_ocv, *r_i;
    Py_ssize_t n_e, n_theta;
    Shape shape;
    Operand in[N_OPERANDS]; /* e, theta, p, dt */
    double *delta_e, *q;    /* C-contiguous, of the shape */
} Circuit;

enum { IN_E, IN_THETA, IN_P, IN_DT };

/* electrical.interp_axis on a grid of n >= 2 finite increasing nodes: the
 * lower node index and the fractional weight of x. */
INLINE void
interp_axis(const double *grid, Py_ssize_t n, double x, Py_ssize_t *lo, double *frac)
{
    /* np.maximum(grid[0], x) and np.minimum(grid[-1], x): a tie returns x,
     * and a NaN x fails both tests and passes */
    x = grid[0] > x ? grid[0] : x;
    x = grid[n - 1] < x ? grid[n - 1] : x;
    /* np.searchsorted(grid, x, side="right"): the count of nodes <= x, all of
     * them for NaN, which NumPy sorts after every number */
    Py_ssize_t count = n;
    if (x == x) {
        Py_ssize_t a = 0, b = n;
        while (a < b) {
            const Py_ssize_t mid = a + (b - a) / 2;
            if (grid[mid] <= x)
                a = mid + 1;
            else
                b = mid;
        }
        count = a;
    }
    Py_ssize_t i = count - 1;
    i = i < 0 ? 0 : (i > n - 2 ? n - 2 : i);
    *lo = i;
    *frac = (x - grid[i]) / (grid[i + 1] - grid[i]);
}

/* electrical.lookup_arrays' bilinear read of one grid at lower corner k00. */
INLINE double
bilinear(const double *grid, Py_ssize_t k00, Py_ssize_t n_theta, double fe, double ft)
{
    const double ge = 1.0 - fe, gt = 1.0 - ft;
    const Py_ssize_t k10 = k00 + n_theta;
    return (((grid[k00] * ge) * gt + (grid[k10] * fe) * gt) + (grid[k00 + 1] * ge) * ft)
           + (grid[k10 + 1] * fe) * ft;
}

/* electrical.energy_step at every element. Returns -1, or the flat index of
 * the first element whose discharge the cell cannot deliver, with that
 * element's electrical.max_discharge_power in *limit. */
static Py_ssize_t
circuit_body(const Circuit *c, double *limit)
{
    Walk w = {0};
    /* (u, r) is looked up again only when e or theta moves to another element */
    Py_ssize_t at_e = 0, at_theta = 0;
    double u = 0.0, r = 0.0;
    for (Py_ssize_t n = 0; n < c->shape.size; n++) {
        if (n == 0 || w.offset[IN_E] != at_e || w.offset[IN_THETA] != at_theta) {
            Py_ssize_t ie, it;
            double fe, ft;
            interp_axis(c->e_axis, c->n_e, load(c->in, &w, IN_E), &ie, &fe);
            interp_axis(c->theta_axis, c->n_theta, load(c->in, &w, IN_THETA), &it, &ft);
            const Py_ssize_t k00 = ie * c->n_theta + it;
            u = bilinear(c->u_ocv, k00, c->n_theta, fe, ft);
            r = bilinear(c->r_i, k00, c->n_theta, fe, ft);
            at_e = w.offset[IN_E];
            at_theta = w.offset[IN_THETA];
        }
        const double p = load(c->in, &w, IN_P);
        const double disc = u * u + (4.0 * r) * (p * 1000.0);
        if (disc < 0.0) {
            *limit = (-(u * u) / (4.0 * r)) / 1000.0;
            return n;
        }
        const double i = (-u + sqrt(disc)) / (2.0 * r);
        const double q = (r * (i * i)) / 1000.0;
        const double delta_e = (load(c->in, &w, IN_DT) / 60.0) * (p - q);
        c->delta_e[n] = delta_e != delta_e ? quiet_nan() : delta_e;
        c->q[n] = q != q ? quiet_nan() : q;
        walk_next(&c->shape, c->in, &w);
    }
    return -1;
}

/* The arguments and scratch space of one temperature_change call. */
typedef struct {
    Net net;
    const double *means, *stds;
    const int64_t *cols;
    Shape shape;
    Operand in[N_OPERANDS]; /* p, q_loss, delta_e, theta */
    double *out;            /* C-contiguous, of the shape */
    double *acts, *features;
} Thermal;

/* thermal.temperature_change: the features |p|, q_loss, |delta_e| and theta
 * of each element (thermal.feature_matrix), then predict's loop. */
INLINE void
thermal_body(const Thermal *t)
{
    const Py_ssize_t f = t->net.widths[0], size = t->shape.size;
    double *feat = t->features; /* (N_OPERANDS, PREDICT_BLOCK_ROWS) */
    Walk w = {0};
    for (Py_ssize_t start = 0; start < size; start += PREDICT_BLOCK_ROWS) {
        const Py_ssize_t nb = size - start < PREDICT_BLOCK_ROWS ? size - start : PREDICT_BLOCK_ROWS;
        for (Py_ssize_t r = 0; r < nb; r++) {
            feat[r] = fabs(load(t->in, &w, 0));
            feat[PREDICT_BLOCK_ROWS + r] = load(t->in, &w, 1);
            feat[2 * PREDICT_BLOCK_ROWS + r] = fabs(load(t->in, &w, 2));
            feat[3 * PREDICT_BLOCK_ROWS + r] = load(t->in, &w, 3);
            walk_next(&t->shape, t->in, &w);
        }
        for (Py_ssize_t j = 0; j < f; j++) {
            const double *col = feat + t->cols[j] * PREDICT_BLOCK_ROWS;
            for (Py_ssize_t r = 0; r < nb; r++)
                t->acts[j * nb + r] = (col[r] - t->means[j]) / t->stds[j];
        }
        predict_rows(&t->net, t->acts, nb, t->out + start);
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

static void
thermal_base(const Thermal *t)
{
    thermal_body(t);
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

__attribute__((target("avx512f"))) static void
thermal_avx512(const Thermal *t)
{
    thermal_body(t);
}
#endif

/* The variants PyInit picks: AVX-512F where the CPU has it. */
static int lanes = 1;
static void (*run_epoch)(const Epoch *) = epoch_base;
static void (*run_predict)(const Predict *) = predict_base;
static void (*run_thermal)(const Thermal *) = thermal_base;

/* ---- binding ---- */

/* Spec.ndim of an input that broadcasts against the output's shape; it may
 * have any strides. */
#define BROADCAST (-1)
/* Spec.ndim of an output of any number of dimensions. */
#define ANY_NDIM (-2)

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
    else if (spec->ndim >= 0 && view->ndim != spec->ndim) {
        PyErr_Format(PyExc_ValueError, "%s: %s has %d dimensions, expected %d", func,
                     spec->name, view->ndim, spec->ndim);
    }
    else if (spec->ndim != BROADCAST && !PyBuffer_IsContiguous(view, 'C')) {
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

/* get_array for each of n objects; on failure the views got so far stay
 * set, for release_all. */
static int
get_arrays(const char *func, PyObject *const *objs, const Spec *specs, int n, Py_buffer *views)
{
    for (int i = 0; i < n; i++) {
        if (get_array(func, objs[i], &specs[i], &views[i]) < 0)
            return -1;
    }
    return 0;
}

static void
release_all(Py_buffer *views, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
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

/* The shape of a C-contiguous output. */
static int
get_shape(const char *func, const Py_buffer *view, const char *name, Shape *s)
{
    if (view->ndim > MAX_DIMS) {
        PyErr_Format(PyExc_ValueError, "%s: %s has %d dimensions, more than %d", func, name,
                     view->ndim, MAX_DIMS);
        return -1;
    }
    s->ndim = view->ndim;
    s->size = 1;
    for (int d = 0; d < view->ndim; d++) {
        s->shape[d] = view->shape[d];
        s->size *= view->shape[d];
    }
    return 0;
}

/* A second output must have the shape s of the first, first_name. */
static int
check_same_shape(const char *func, const Py_buffer *view, const char *name, const Shape *s,
                 const char *first_name)
{
    int same = view->ndim == s->ndim;
    for (int d = 0; same && d < s->ndim; d++)
        same = view->shape[d] == s->shape[d];
    if (same)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s: %s does not have the shape of %s", func, name, first_name);
    return -1;
}

/* An input's strides along the output's axes, by NumPy's broadcasting
 * rules: its axes align with the output's last ones, and each has the
 * output's length or length 1. */
static int
set_operand(const char *func, const Py_buffer *view, const char *name, const Shape *s,
            Operand *op)
{
    if (view->ndim > s->ndim) {
        PyErr_Format(PyExc_ValueError, "%s: %s has %d dimensions, more than the output's %d",
                     func, name, view->ndim, s->ndim);
        return -1;
    }
    const int lead = s->ndim - view->ndim;
    op->base = view->buf;
    for (int d = 0; d < lead; d++)
        op->strides[d] = 0;
    for (int d = 0; d < view->ndim; d++) {
        const Py_ssize_t want = s->shape[lead + d];
        if (view->shape[d] == want)
            op->strides[lead + d] = view->strides[d];
        else if (view->shape[d] == 1)
            op->strides[lead + d] = 0;
        else {
            PyErr_Format(PyExc_ValueError,
                         "%s: %s has %zd entries along axis %d, which do not broadcast to %zd",
                         func, name, view->shape[d], d, want);
            return -1;
        }
    }
    return 0;
}

/* A Net with room for n_layers layers, or -1 with MemoryError set; free
 * with net_free. */
static int
net_alloc(Net *net, Py_ssize_t n_layers)
{
    void *block = PyMem_Malloc((size_t)n_layers * 2 * sizeof(double *)
                               + (size_t)(n_layers + 1) * sizeof(Py_ssize_t));
    if (block == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    net->n_layers = n_layers;
    net->w = block;
    net->b = net->w + n_layers;
    net->widths = (Py_ssize_t *)(net->b + n_layers);
    return 0;
}

static void
net_free(Net *net)
{
    PyMem_Free(net->w);
    net->w = NULL;
}

/* The Net of a flat parameter vector with int64 widths (at least two, each
 * >= 1, one output), whose layers are views into params. Sizes are bounded
 * by n_params, which is the length of a buffer, so the products below do
 * not overflow once each width is known to fit. */
static int
net_from_flat(const char *func, double *params, Py_ssize_t n_params, const int64_t *widths,
              Py_ssize_t n_widths, Net *net)
{
    if (n_widths < 2) {
        PyErr_Format(PyExc_ValueError, "%s: widths needs at least 2 entries", func);
        return -1;
    }
    Py_ssize_t total = 0;
    for (Py_ssize_t l = 0; l < n_widths; l++) {
        const int64_t w = widths[l];
        if (w < 1 || w > n_params) {
            PyErr_Format(PyExc_ValueError, "%s: widths[%zd] = %lld is not in [1, %zd]", func, l,
                         (long long)w, n_params);
            return -1;
        }
        if (l > 0) {
            const Py_ssize_t fi = widths[l - 1];
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
    if (widths[n_widths - 1] != 1) {
        PyErr_Format(PyExc_ValueError, "%s: the last width is %lld, expected 1 output", func,
                     (long long)widths[n_widths - 1]);
        return -1;
    }
    if (net_alloc(net, n_widths - 1) < 0)
        return -1;
    double *p = params;
    for (Py_ssize_t l = 0; l < n_widths; l++)
        net->widths[l] = widths[l];
    for (Py_ssize_t l = 0; l < net->n_layers; l++) {
        net->w[l] = p;
        net->b[l] = p + net->widths[l] * net->widths[l + 1];
        p += (net->widths[l] + 1) * net->widths[l + 1];
    }
    return 0;
}

/* The Net of a sequence of (weights, bias) pairs: float64 C-contiguous
 * weights (fan_in, fan_out), each fan_in the previous fan_out, and biases
 * (fan_out,), the last fan_out 1. *views gets the 2 * n_layers buffers, for
 * release_all and PyMem_Free also on failure; the Net reads into them. */
static int
net_from_layers(const char *func, PyObject *layers, Net *net, Py_buffer **views)
{
    *views = NULL;
    net->w = NULL;
    PyObject *seq = PySequence_Fast(layers, "layers must be a sequence of (weights, bias) pairs");
    if (seq == NULL)
        return -1;
    int status = -1;
    const Py_ssize_t n_layers = PySequence_Fast_GET_SIZE(seq);
    if (n_layers < 1) {
        PyErr_Format(PyExc_ValueError, "%s: layers needs at least 1 layer", func);
        goto done;
    }
    if (net_alloc(net, n_layers) < 0)
        goto done;
    *views = PyMem_Calloc((size_t)(2 * n_layers), sizeof(Py_buffer));
    if (*views == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t l = 0; l < n_layers; l++) {
        PyObject *pair = PySequence_Fast(PySequence_Fast_GET_ITEM(seq, l),
                                         "layers must be a sequence of (weights, bias) pairs");
        if (pair == NULL)
            goto done;
        char names[2][48];
        snprintf(names[0], sizeof names[0], "layers[%zd] weights", l);
        snprintf(names[1], sizeof names[1], "layers[%zd] bias", l);
        const Spec specs[2] = {{names[0], 'd', 2, 0}, {names[1], 'd', 1, 0}};
        Py_buffer *wv = &(*views)[2 * l], *bv = wv + 1;
        int ok = PySequence_Fast_GET_SIZE(pair) == 2;
        if (!ok)
            PyErr_Format(PyExc_ValueError, "%s: layers[%zd] is not a (weights, bias) pair", func, l);
        else
            ok = get_arrays(func, PySequence_Fast_ITEMS(pair), specs, 2, wv) == 0;
        Py_DECREF(pair);
        if (!ok)
            goto done;
        const Py_ssize_t fi = wv->shape[0], fo = wv->shape[1];
        if (fi < 1 || fo < 1) {
            PyErr_Format(PyExc_ValueError, "%s: %s have shape (%zd, %zd), expected no empty axis",
                         func, names[0], fi, fo);
            goto done;
        }
        if (l > 0 && check_length(func, wv, names[0], 0, net->widths[l]) < 0)
            goto done;
        if (check_length(func, bv, names[1], 0, fo) < 0)
            goto done;
        net->widths[l] = fi;
        net->widths[l + 1] = fo;
        net->w[l] = wv->buf;
        net->b[l] = bv->buf;
    }
    if (net->widths[n_layers] != 1) {
        PyErr_Format(PyExc_ValueError, "%s: the last layer has %zd outputs, expected 1", func,
                     net->widths[n_layers]);
        goto done;
    }
    status = 0;

done:
    Py_DECREF(seq);
    return status;
}

/* The scratch a network's activations need over blocks of nb rows, in
 * doubles, or -1 with MemoryError set. Each width is at most the length of
 * a buffer, so their sum does not overflow. */
static Py_ssize_t
acts_size(const Net *net, Py_ssize_t nb)
{
    Py_ssize_t sum = 0;
    for (Py_ssize_t l = 0; l <= net->n_layers; l++)
        sum += net->widths[l];
    if (sum > PY_SSIZE_T_MAX / 8 / 4 / nb) {
        PyErr_NoMemory();
        return -1;
    }
    return sum * nb;
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

/* The normalization of a network's f inputs: cols (f,) columns of n_cols,
 * means and stds (f,). */
static int
check_inputs(const char *func, const Py_buffer *cols, const Py_buffer *means,
             const Py_buffer *stds, Py_ssize_t f, Py_ssize_t n_cols)
{
    if (check_length(func, cols, "cols", 0, f) < 0 || check_length(func, means, "means", 0, f) < 0
        || check_length(func, stds, "stds", 0, f) < 0)
        return -1;
    const int64_t *values = cols->buf;
    const Py_ssize_t bad = first_out_of_range(values, f, n_cols);
    if (bad >= 0) {
        PyErr_Format(PyExc_ValueError, "%s: cols[%zd] = %lld is not a column of x (%zd columns)",
                     func, bad, (long long)values[bad], n_cols);
        return -1;
    }
    return 0;
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
    Net net = {0};
    if (get_arrays(func, objs, EPOCH_SPECS, E_N, views) < 0)
        goto done;
    const Py_ssize_t n_params = views[E_PARAMS].shape[0];
    if (net_from_flat(func, views[E_PARAMS].buf, n_params, views[E_WIDTHS].buf,
                      views[E_WIDTHS].shape[0], &net) < 0)
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
    /* acts: every layer over a batch; delta, next, delta_t: one layer's error,
     * at most as wide as all layers together */
    const Py_ssize_t nb = batch < n ? batch : (n > 0 ? n : 1);
    const Py_ssize_t n_acts = acts_size(&net, nb);
    if (n_acts < 0)
        goto done;
    scratch = alloc_doubles(n_params + 4 * n_acts);
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
        .next = scratch + n_params + 2 * n_acts,
        .delta_t = scratch + n_params + 3 * n_acts,
    };
    Py_BEGIN_ALLOW_THREADS
    run_epoch(&epoch);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);

done:
    PyMem_RawFree(scratch);
    net_free(&net);
    release_all(views, E_N);
    return result;
}

enum { P_X, P_COLS, P_MEANS, P_STDS, P_OUT, P_N };

static const Spec PREDICT_SPECS[P_N] = {
    [P_X] = {"x", 'd', 2, 0},
    [P_COLS] = {"cols", 'q', 1, 0},
    [P_MEANS] = {"means", 'd', 1, 0},
    [P_STDS] = {"stds", 'd', 1, 0},
    [P_OUT] = {"out", 'd', 1, 1},
};

PyDoc_STRVAR(predict_doc,
"predict(x, cols, means, stds, layers, out)\n"
"\n"
"thermal.predict_batch for a linear or MLP model: out[r] gets the network's\n"
"output for the inputs (x[r, cols[j]] - means[j]) / stds[j], and np.nan for\n"
"any NaN output. x is float64 (m, any number of columns), cols int64\n"
"(n_inputs,), means and stds float64 (n_inputs,), out float64 (m,). layers\n"
"is the model's sequence of (weights, bias) pairs, float64 and C-contiguous:\n"
"weights (fan_in, fan_out), the first fan_in n_inputs and each other the\n"
"fan_out before it, bias (fan_out,), the last fan_out 1.");

static PyObject *
py_predict(PyObject *self, PyObject *args)
{
    (void)self;
    const char *func = "predict";
    PyObject *objs[P_N], *layers;
    if (!PyArg_ParseTuple(args, "OOOOOO:predict", &objs[P_X], &objs[P_COLS], &objs[P_MEANS],
                          &objs[P_STDS], &layers, &objs[P_OUT]))
        return NULL;
    Py_buffer views[P_N], *layer_views = NULL;
    memset(views, 0, sizeof(views));
    PyObject *result = NULL;
    double *scratch = NULL;
    Net net = {0};
    if (get_arrays(func, objs, PREDICT_SPECS, P_N, views) < 0
        || net_from_layers(func, layers, &net, &layer_views) < 0)
        goto done;
    const Py_ssize_t m = views[P_X].shape[0], n_cols = views[P_X].shape[1];
    if (check_inputs(func, &views[P_COLS], &views[P_MEANS], &views[P_STDS], net.widths[0], n_cols) < 0
        || check_length(func, &views[P_OUT], "out", 0, m) < 0)
        goto done;
    const Py_ssize_t n_acts = acts_size(&net, PREDICT_BLOCK_ROWS);
    if (n_acts < 0 || (scratch = alloc_doubles(n_acts)) == NULL)
        goto done;
    const Predict predict = {
        .net = net,
        .x = views[P_X].buf,
        .means = views[P_MEANS].buf,
        .stds = views[P_STDS].buf,
        .cols = views[P_COLS].buf,
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
    if (layer_views != NULL)
        release_all(layer_views, 2 * net.n_layers);
    PyMem_Free(layer_views);
    net_free(&net);
    release_all(views, P_N);
    return result;
}

enum { C_E_AXIS, C_THETA_AXIS, C_U_OCV, C_R_I, C_E, C_THETA, C_P, C_DT, C_DELTA_E, C_Q, C_N };

static const Spec CIRCUIT_SPECS[C_N] = {
    [C_E_AXIS] = {"e_axis", 'd', 1, 0},
    [C_THETA_AXIS] = {"theta_axis", 'd', 1, 0},
    [C_U_OCV] = {"u_ocv", 'd', 2, 0},
    [C_R_I] = {"r_i", 'd', 2, 0},
    [C_E] = {"e", 'd', BROADCAST, 0},
    [C_THETA] = {"theta", 'd', BROADCAST, 0},
    [C_P] = {"p", 'd', BROADCAST, 0},
    [C_DT] = {"dt", 'd', BROADCAST, 0},
    [C_DELTA_E] = {"delta_e", 'd', ANY_NDIM, 1},
    [C_Q] = {"q", 'd', ANY_NDIM, 1},
};

PyDoc_STRVAR(energy_step_doc,
"energy_step(e_axis, theta_axis, u_ocv, r_i, e, theta, p, dt, delta_e, q)\n"
"\n"
"electrical.energy_step for the tables (e_axis, theta_axis, u_ocv, r_i): each\n"
"element of delta_e and q gets the energy step in kWh and the Ohmic loss in\n"
"kW at the state (e, theta) under power p (kW) over dt minutes, and np.nan\n"
"where the result is NaN. The axes are float64 (n_e,) and (n_theta,), each of\n"
"at least 2 finite increasing nodes, and u_ocv and r_i float64\n"
"(n_e, n_theta). e, theta, p and dt are float64 arrays of any strides that\n"
"broadcast to the shape of delta_e and q, which are C-contiguous float64\n"
"arrays of one shape. Returns None, or (index, limit) for the first element\n"
"in C order whose discharge the cell cannot deliver: its flat index and its\n"
"electrical.max_discharge_power in kW. The outputs are then incomplete.");

static PyObject *
py_energy_step(PyObject *self, PyObject *args)
{
    (void)self;
    const char *func = "energy_step";
    PyObject *objs[C_N];
    if (!PyArg_ParseTuple(args, "OOOOOOOOOO:energy_step", &objs[C_E_AXIS], &objs[C_THETA_AXIS],
                          &objs[C_U_OCV], &objs[C_R_I], &objs[C_E], &objs[C_THETA], &objs[C_P],
                          &objs[C_DT], &objs[C_DELTA_E], &objs[C_Q]))
        return NULL;
    Py_buffer views[C_N];
    memset(views, 0, sizeof(views));
    PyObject *result = NULL;
    Circuit c;
    if (get_arrays(func, objs, CIRCUIT_SPECS, C_N, views) < 0)
        goto done;
    c.n_e = views[C_E_AXIS].shape[0];
    c.n_theta = views[C_THETA_AXIS].shape[0];
    if (c.n_e < 2 || c.n_theta < 2) {
        PyErr_Format(PyExc_ValueError, "%s: the axes have %zd and %zd nodes, expected at least 2",
                     func, c.n_e, c.n_theta);
        goto done;
    }
    if (check_length(func, &views[C_U_OCV], "u_ocv", 0, c.n_e) < 0
        || check_length(func, &views[C_U_OCV], "u_ocv", 1, c.n_theta) < 0
        || check_length(func, &views[C_R_I], "r_i", 0, c.n_e) < 0
        || check_length(func, &views[C_R_I], "r_i", 1, c.n_theta) < 0)
        goto done;
    if (get_shape(func, &views[C_DELTA_E], "delta_e", &c.shape) < 0
        || check_same_shape(func, &views[C_Q], "q", &c.shape, "delta_e") < 0)
        goto done;
    for (int k = 0; k < N_OPERANDS; k++) {
        if (set_operand(func, &views[C_E + k], CIRCUIT_SPECS[C_E + k].name, &c.shape, &c.in[k]) < 0)
            goto done;
    }
    c.e_axis = views[C_E_AXIS].buf;
    c.theta_axis = views[C_THETA_AXIS].buf;
    c.u_ocv = views[C_U_OCV].buf;
    c.r_i = views[C_R_I].buf;
    c.delta_e = views[C_DELTA_E].buf;
    c.q = views[C_Q].buf;
    Py_ssize_t bad;
    double limit = 0.0;
    Py_BEGIN_ALLOW_THREADS
    bad = circuit_body(&c, &limit);
    Py_END_ALLOW_THREADS
    result = bad < 0 ? Py_NewRef(Py_None) : Py_BuildValue("(nd)", bad, limit);

done:
    release_all(views, C_N);
    return result;
}

enum { T_P, T_Q, T_DELTA_E, T_THETA, T_COLS, T_MEANS, T_STDS, T_OUT, T_N };

static const Spec THERMAL_SPECS[T_N] = {
    [T_P] = {"p", 'd', BROADCAST, 0},
    [T_Q] = {"q_loss", 'd', BROADCAST, 0},
    [T_DELTA_E] = {"delta_e", 'd', BROADCAST, 0},
    [T_THETA] = {"theta", 'd', BROADCAST, 0},
    [T_COLS] = {"cols", 'q', 1, 0},
    [T_MEANS] = {"means", 'd', 1, 0},
    [T_STDS] = {"stds", 'd', 1, 0},
    [T_OUT] = {"out", 'd', ANY_NDIM, 1},
};

PyDoc_STRVAR(temperature_change_doc,
"temperature_change(p, q_loss, delta_e, theta, cols, means, stds, layers, out)\n"
"\n"
"thermal.temperature_change for a linear or MLP model: each element of out\n"
"gets predict's output for the features (|p|, q_loss, |delta_e|, theta) of\n"
"that element, in thermal.FEATURE_NAMES' order, of which the network reads\n"
"the columns cols. p, q_loss, delta_e and theta are float64 arrays of any\n"
"strides that broadcast to the shape of out, a C-contiguous float64 array;\n"
"cols, means, stds and layers are as in predict, with 4 columns.");

static PyObject *
py_temperature_change(PyObject *self, PyObject *args)
{
    (void)self;
    const char *func = "temperature_change";
    PyObject *objs[T_N], *layers;
    if (!PyArg_ParseTuple(args, "OOOOOOOOO:temperature_change", &objs[T_P], &objs[T_Q],
                          &objs[T_DELTA_E], &objs[T_THETA], &objs[T_COLS], &objs[T_MEANS],
                          &objs[T_STDS], &layers, &objs[T_OUT]))
        return NULL;
    Py_buffer views[T_N], *layer_views = NULL;
    memset(views, 0, sizeof(views));
    PyObject *result = NULL;
    double *scratch = NULL;
    Net net = {0};
    Thermal t;
    if (get_arrays(func, objs, THERMAL_SPECS, T_N, views) < 0
        || net_from_layers(func, layers, &net, &layer_views) < 0)
        goto done;
    if (check_inputs(func, &views[T_COLS], &views[T_MEANS], &views[T_STDS], net.widths[0],
                     N_OPERANDS) < 0
        || get_shape(func, &views[T_OUT], "out", &t.shape) < 0)
        goto done;
    for (int k = 0; k < N_OPERANDS; k++) {
        if (set_operand(func, &views[T_P + k], THERMAL_SPECS[T_P + k].name, &t.shape, &t.in[k]) < 0)
            goto done;
    }
    const Py_ssize_t n_acts = acts_size(&net, PREDICT_BLOCK_ROWS);
    if (n_acts < 0 || (scratch = alloc_doubles(n_acts + N_OPERANDS * PREDICT_BLOCK_ROWS)) == NULL)
        goto done;
    t.net = net;
    t.means = views[T_MEANS].buf;
    t.stds = views[T_STDS].buf;
    t.cols = views[T_COLS].buf;
    t.out = views[T_OUT].buf;
    t.acts = scratch;
    t.features = scratch + n_acts;
    Py_BEGIN_ALLOW_THREADS
    run_thermal(&t);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);

done:
    PyMem_RawFree(scratch);
    if (layer_views != NULL)
        release_all(layer_views, 2 * net.n_layers);
    PyMem_Free(layer_views);
    net_free(&net);
    release_all(views, T_N);
    return result;
}

static PyMethodDef methods[] = {
    {"sgd_epoch", py_sgd_epoch, METH_VARARGS, sgd_epoch_doc},
    {"predict", py_predict, METH_VARARGS, predict_doc},
    {"energy_step", py_energy_step, METH_VARARGS, energy_step_doc},
    {"temperature_change", py_temperature_change, METH_VARARGS, temperature_change_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_mlp_kernel",
    .m_doc = "Compiled MLP training epoch and prediction, and the circuit and thermal step; "
             "see electrical.py and thermal.py for the NumPy definitions.",
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
        run_thermal = thermal_avx512;
    }
#endif
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddIntConstant(mod, "LANES", lanes) < 0)
        Py_CLEAR(mod);
    return mod;
}
