/* Compiled backward-induction kernel.
 *
 * One pass fills the cost and action grids of B scenarios that share a
 * transition table, reading each (cell, action) of the table once. Scenario
 * b's candidate is
 *     (je_b[k] + (scale_b * cyc_fade[c, k] + cal_b[c])) + interpolated successor,
 * where the successor is read from scenario b's own cost slice. It mirrors
 * _kernel_py.backward_pass: the same expression order and the same
 * first-minimum tie rule (strict <), so both kernels give bit-identical cost
 * and action grids as long as the compiler does not contract a * b + c into a
 * fused multiply-add (setup.py builds with -ffp-contract=off). A scenario gets
 * the same bits in a batch as alone: nothing one scenario computes reads
 * another's.
 *
 * On x86-64 CPUs with AVX-512F (checked once, when the module is imported),
 * scan_lanes evaluates the actions of a cell in whole blocks of 8, one
 * action per lane, and the scalar loop scan_actions takes the last K mod 8.
 * Each lane does the same IEEE multiplies and adds as the scalar loop, in the
 * same order and as separate instructions (no FMA), so a candidate has the
 * same bits in a lane as in the scalar loop. Each lane keeps the first
 * strict-< minimum of its own actions; the 8 lanes are then reduced to the
 * smallest value, equal values going to the lowest action index, and the
 * scalar loop goes on from that minimum, which gives the first minimum over
 * all K. Invalid transitions are masked out of the gathers, so their corners
 * are never read. The scalar loop runs alone for every K on other compilers
 * and CPUs, and when K < 8, which leaves no whole block. The module constant
 * LANES is 8 where the lanes run and 1 elsewhere.
 *
 * On Linux the pass runs on T threads, the calling thread and T - 1 threads
 * started for the call, where T is the number of CPUs in the process's
 * affinity mask (sched_getaffinity) capped at the n_rows energy rows. The
 * affinity mask is the only control; taskset or os.sched_setaffinity narrows
 * it. Thread id owns the energy rows i with i mod T == id: at every step it
 * fills its rows of every scenario with the penalty and p_d[0] and computes
 * the cells of its rows that lie in the box, one row at a time, so that the
 * same thread fills and computes each row. The threads then wait at a
 * barrier, because step n - 1 reads the whole of slice n. Each cell's minimum
 * comes from the same code and the same complete slice n + 1 whatever T is;
 * only the order in which the cells are computed changes, so the bits do not
 * depend on T. A thread that cannot be started leaves the pass to those that
 * were, down to the calling thread alone: the workers wait at a start gate
 * until the caller has published the final T. Elsewhere the calling thread
 * runs the pass alone.
 *
 * Step n computes only the cells of its box, the energy rows [boxes[n, 0],
 * boxes[n, 1]) and temperature columns [boxes[n, 2], boxes[n, 3]) of the
 * n_rows x (M / n_rows) grid, in every scenario. Every other cell gets the
 * penalty and the action p_d[0], what a cell without a valid transition gets.
 * The caller chooses boxes closed under the corners the computed cells read,
 * so that no computed cell reads a cell left out (solver.reachable_region);
 * with the whole grid in every box, this is the plain pass over all M cells.
 *
 * A successor's corners lie stride_t = 1 and stride_e = Nj cells apart, or 0
 * along an axis of a single node; the binding works both out from the shape.
 * Corners are stored as int32 and widened to 64 bits before any offset is
 * added.
 *
 * The loop does no bounds checks. The binding checks every buffer's item
 * type, dimensions, contiguity and shape, every valid successor corner (once
 * per call, whatever B is) and every box before it runs the loop with the
 * GIL released.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define HAVE_LANES 1
#endif

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#define HAVE_THREADS 1
#endif

/* The (M, K) transition arrays of one backward pass. */
typedef struct {
    const unsigned char *valid;
    const int32_t *corner00;
    const double *frac_e;
    const double *frac_theta;
    const double *cyc_fade;
    int64_t stride_e;
    int64_t stride_t;
    double penalty;
} Transitions;

/* What one scenario's candidates of one cell at step n read besides the
 * table: its energy costs of the step per action, its aging cost per unit of
 * fade, its calendar cost of the cell and its cost slice n + 1. */
typedef struct {
    const double *je_n;
    double scale;
    double cal;
    const double *nxt;
} Scenario;

/* First minimum over actions [k0, k1) of the cell whose row starts at row,
 * for each of the n_scen scenarios, continuing from best[b] and best_k[b].
 * Inlined into scan_actions once per batch size it is called with (see
 * scan_lanes). */
__attribute__((always_inline)) static inline void
scan_actions_of(const Transitions *t, Py_ssize_t row, const Py_ssize_t n_scen,
                const Scenario *sc, Py_ssize_t k0, Py_ssize_t k1, double *best,
                Py_ssize_t *best_k)
{
    const int64_t stride_e = t->stride_e, stride_t = t->stride_t;
    for (Py_ssize_t k = k0; k < k1; k++) {
        if (!t->valid[row + k]) {
            for (Py_ssize_t b = 0; b < n_scen; b++) {
                if (t->penalty < best[b]) {
                    best[b] = t->penalty;
                    best_k[b] = k;
                }
            }
            continue;
        }
        const int64_t c00 = t->corner00[row + k];
        const double fe = t->frac_e[row + k];
        const double ft = t->frac_theta[row + k];
        const double cyc = t->cyc_fade[row + k];
        for (Py_ssize_t b = 0; b < n_scen; b++) {
            const double *nxt = sc[b].nxt;
            const double lo = (1.0 - ft) * nxt[c00] + ft * nxt[c00 + stride_t];
            const double hi = (1.0 - ft) * nxt[c00 + stride_e]
                              + ft * nxt[c00 + stride_e + stride_t];
            const double cand = (sc[b].je_n[k] + (sc[b].scale * cyc + sc[b].cal))
                                + ((1.0 - fe) * lo + fe * hi);
            if (cand < best[b]) {
                best[b] = cand;
                best_k[b] = k;
            }
        }
    }
}

/* scan_actions_of, with the batch size a constant for B = 1 and 2. */
static void
scan_actions(const Transitions *t, Py_ssize_t row, Py_ssize_t n_scen,
             const Scenario *sc, Py_ssize_t k0, Py_ssize_t k1, double *best,
             Py_ssize_t *best_k)
{
    if (n_scen == 1)
        scan_actions_of(t, row, 1, sc, k0, k1, best, best_k);
    else if (n_scen == 2)
        scan_actions_of(t, row, 2, sc, k0, k1, best, best_k);
    else
        scan_actions_of(t, row, n_scen, sc, k0, k1, best, best_k);
}

#ifdef HAVE_LANES
/* First minimum over actions [0, 8 * n_blocks) of the cell whose row starts
 * at row, 8 actions at a time, for each of the n_scen scenarios. Inlined
 * into scan_lanes once per batch size it is called with: a constant n_scen
 * unrolls the loops over the batch and keeps the lane minima in registers,
 * which made a full-scale pass of one scenario 6-12% faster. */
__attribute__((target("avx512f"), always_inline)) static inline void
scan_lanes_of(const Transitions *t, Py_ssize_t row, const Py_ssize_t n_scen,
              const Scenario *sc, Py_ssize_t n_blocks, double *best,
              Py_ssize_t *best_k)
{
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512d zero = _mm512_setzero_pd();
    const __m512d penalty = _mm512_set1_pd(t->penalty);
    const __m512i stride_e = _mm512_set1_epi64(t->stride_e);
    const __m512i stride_t = _mm512_set1_epi64(t->stride_t);
    __m512i k = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    __m512d lane_min[n_scen];
    __m512i lane_k[n_scen];
    for (Py_ssize_t b = 0; b < n_scen; b++) {
        lane_min[b] = _mm512_set1_pd(INFINITY);
        lane_k[b] = _mm512_setzero_si512();
    }
    for (Py_ssize_t blk = 0; blk < n_blocks; blk++) {
        const Py_ssize_t i = row + 8 * blk;
        const __m512i flags = _mm512_cvtepu8_epi64(_mm_loadl_epi64((const __m128i *)(t->valid + i)));
        const __mmask8 valid = _mm512_test_epi64_mask(flags, flags);
        const __m512i c00 = _mm512_cvtepi32_epi64(_mm256_loadu_si256((const __m256i *)(t->corner00 + i)));
        const __m512i c01 = _mm512_add_epi64(c00, stride_t);
        const __m512i c10 = _mm512_add_epi64(c00, stride_e);
        const __m512i c11 = _mm512_add_epi64(c10, stride_t);
        const __m512d fe = _mm512_loadu_pd(t->frac_e + i);
        const __m512d ft = _mm512_loadu_pd(t->frac_theta + i);
        const __m512d ge = _mm512_sub_pd(one, fe);
        const __m512d gt = _mm512_sub_pd(one, ft);
        const __m512d cyc = _mm512_loadu_pd(t->cyc_fade + i);
        for (Py_ssize_t b = 0; b < n_scen; b++) {
            const double *nxt = sc[b].nxt;
            const __m512d n00 = _mm512_mask_i64gather_pd(zero, valid, c00, nxt, 8);
            const __m512d n01 = _mm512_mask_i64gather_pd(zero, valid, c01, nxt, 8);
            const __m512d n10 = _mm512_mask_i64gather_pd(zero, valid, c10, nxt, 8);
            const __m512d n11 = _mm512_mask_i64gather_pd(zero, valid, c11, nxt, 8);
            const __m512d lo = _mm512_add_pd(_mm512_mul_pd(gt, n00), _mm512_mul_pd(ft, n01));
            const __m512d hi = _mm512_add_pd(_mm512_mul_pd(gt, n10), _mm512_mul_pd(ft, n11));
            const __m512d succ = _mm512_add_pd(_mm512_mul_pd(ge, lo), _mm512_mul_pd(fe, hi));
            const __m512d aging = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(sc[b].scale), cyc),
                                                _mm512_set1_pd(sc[b].cal));
            const __m512d cost = _mm512_add_pd(
                _mm512_add_pd(_mm512_loadu_pd(sc[b].je_n + 8 * blk), aging), succ);
            const __m512d cand = _mm512_mask_blend_pd(valid, penalty, cost);
            const __mmask8 lower = _mm512_cmp_pd_mask(cand, lane_min[b], _CMP_LT_OQ);
            lane_min[b] = _mm512_mask_mov_pd(lane_min[b], lower, cand);
            lane_k[b] = _mm512_mask_mov_epi64(lane_k[b], lower, k);
        }
        k = _mm512_add_epi64(k, _mm512_set1_epi64(8));
    }
    for (Py_ssize_t b = 0; b < n_scen; b++) {
        double mins[8];
        int64_t ks[8];
        _mm512_storeu_pd(mins, lane_min[b]);
        _mm512_storeu_si512(ks, lane_k[b]);
        double min = mins[0];
        int64_t min_k = ks[0];
        for (int lane = 1; lane < 8; lane++) {
            if (mins[lane] < min || (mins[lane] == min && ks[lane] < min_k)) {
                min = mins[lane];
                min_k = ks[lane];
            }
        }
        best[b] = min;
        best_k[b] = min_k;
    }
}

/* scan_lanes_of, with the batch size a constant for B = 1 and 2. */
__attribute__((target("avx512f"))) static void
scan_lanes(const Transitions *t, Py_ssize_t row, Py_ssize_t n_scen,
           const Scenario *sc, Py_ssize_t n_blocks, double *best,
           Py_ssize_t *best_k)
{
    if (n_scen == 1)
        scan_lanes_of(t, row, 1, sc, n_blocks, best, best_k);
    else if (n_scen == 2)
        scan_lanes_of(t, row, 2, sc, n_blocks, best, best_k);
    else
        scan_lanes_of(t, row, n_scen, sc, n_blocks, best, best_k);
}
#endif

/* Actions evaluated per instruction: 8 once PyInit finds AVX-512F, else 1. */
static int lanes = 1;

/* The arguments of one backward pass over n_scen scenarios. cost is
 * (n_scen, N + 1, M), action_kw (n_scen, N, M), je (N, n_scen, K), cal
 * (n_scen, M) and scale (n_scen,). */
typedef struct {
    Py_ssize_t n_steps, n_scen, m, n_actions, n_rows;
    double *cost, *action_kw;
    const Transitions *t;
    const double *je, *cal, *scale, *p_d;
    const int64_t *boxes;
} Pass;

/* Row i of slice n of every scenario: the penalty and p_d[0] in every cell,
 * then the cells of the box computed from slice n + 1. */
static void
step_row(const Pass *p, Py_ssize_t n, Py_ssize_t i)
{
    const Transitions *t = p->t;
    const Py_ssize_t m = p->m, n_cols = m / p->n_rows, n_actions = p->n_actions;
    const Py_ssize_t n_scen = p->n_scen;
    Scenario sc[n_scen];
    for (Py_ssize_t b = 0; b < n_scen; b++) {
        double *cost_i = p->cost + (b * (p->n_steps + 1) + n) * m + i * n_cols;
        double *action_i = p->action_kw + (b * p->n_steps + n) * m + i * n_cols;
        for (Py_ssize_t j = 0; j < n_cols; j++) {
            cost_i[j] = t->penalty;
            action_i[j] = p->p_d[0];
        }
        sc[b].je_n = p->je + (n * n_scen + b) * n_actions;
        sc[b].scale = p->scale[b];
        sc[b].nxt = p->cost + (b * (p->n_steps + 1) + n + 1) * m;
    }
    const int64_t *box = p->boxes + 4 * n;
    if (i < box[0] || i >= box[1])
        return;
    double best[n_scen];
    Py_ssize_t best_k[n_scen];
    for (Py_ssize_t j = box[2]; j < box[3]; j++) {
        const Py_ssize_t cell = i * n_cols + j, row = cell * n_actions;
        for (Py_ssize_t b = 0; b < n_scen; b++) {
            sc[b].cal = p->cal[b * m + cell];
            best[b] = INFINITY;
            best_k[b] = 0;
        }
        Py_ssize_t k0 = 0;
#ifdef HAVE_LANES
        if (lanes == 8 && n_actions >= 8) {
            scan_lanes(t, row, n_scen, sc, n_actions / 8, best, best_k);
            k0 = n_actions - n_actions % 8;
        }
#endif
        scan_actions(t, row, n_scen, sc, k0, n_actions, best, best_k);
        for (Py_ssize_t b = 0; b < n_scen; b++) {
            p->cost[(b * (p->n_steps + 1) + n) * m + cell] = best[b];
            p->action_kw[(b * p->n_steps + n) * m + cell] = p->p_d[best_k[b]];
        }
    }
}

static void
backward_loop(const Pass *p)
{
    for (Py_ssize_t n = p->n_steps - 1; n >= 0; n--) {
        for (Py_ssize_t i = 0; i < p->n_rows; i++)
            step_row(p, n, i);
    }
}

#ifdef HAVE_THREADS
/* The threads of one pass. n_threads is 0 until the caller publishes it. */
typedef struct {
    const Pass *pass;
    pthread_mutex_t lock;
    pthread_cond_t published;
    int n_threads;
    pthread_barrier_t step_done;
} Team;

typedef struct {
    Team *team;
    int id;
} Worker;

/* backward_loop over the rows i with i mod n_threads == id; the n_threads
 * threads meet at team->step_done after each step but the last. */
static void
backward_rows(Team *team, int id, int n_threads)
{
    const Pass *p = team->pass;
    for (Py_ssize_t n = p->n_steps - 1; n >= 0; n--) {
        for (Py_ssize_t i = id; i < p->n_rows; i += n_threads)
            step_row(p, n, i);
        if (n_threads > 1 && n > 0)
            pthread_barrier_wait(&team->step_done);
    }
}

static void *
worker_main(void *arg)
{
    const Worker *w = arg;
    Team *team = w->team;
    pthread_mutex_lock(&team->lock);
    while (team->n_threads == 0)
        pthread_cond_wait(&team->published, &team->lock);
    const int n_threads = team->n_threads;
    pthread_mutex_unlock(&team->lock);
    if (w->id < n_threads)
        backward_rows(team, w->id, n_threads);
    return NULL;
}

/* Threads to run a pass of n_rows rows on: the CPUs this process may run
 * on, at most one per row, and 1 when the affinity mask cannot be read. */
static int
wanted_threads(Py_ssize_t n_rows)
{
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0)
        return 1;
    const int n_cpus = CPU_COUNT(&cpus);
    return n_rows < n_cpus ? (int)n_rows : n_cpus;
}

/* backward_loop on the calling thread and as many of the wanted - 1 other
 * threads as start; -1, with nothing computed, when the start gate cannot be
 * set up. */
static int
backward_threads(const Pass *p, int wanted)
{
    Team team = {.pass = p, .n_threads = 0};
    if (pthread_mutex_init(&team.lock, NULL) != 0)
        return -1;
    if (pthread_cond_init(&team.published, NULL) != 0) {
        pthread_mutex_destroy(&team.lock);
        return -1;
    }
    pthread_t threads[wanted];
    Worker workers[wanted];
    int started = 1; /* the calling thread */
    for (; started < wanted; started++) {
        workers[started] = (Worker){&team, started};
        if (pthread_create(&threads[started], NULL, worker_main, &workers[started]) != 0)
            break;
    }
    int n_threads = started;
    if (n_threads > 1 && pthread_barrier_init(&team.step_done, NULL, n_threads) != 0)
        n_threads = 1; /* the started workers then return at once */
    pthread_mutex_lock(&team.lock);
    team.n_threads = n_threads;
    pthread_cond_broadcast(&team.published);
    pthread_mutex_unlock(&team.lock);
    backward_rows(&team, 0, n_threads);
    for (int w = 1; w < started; w++)
        pthread_join(threads[w], NULL);
    if (n_threads > 1)
        pthread_barrier_destroy(&team.step_done);
    pthread_cond_destroy(&team.published);
    pthread_mutex_destroy(&team.lock);
    return 0;
}
#endif

/* backward_loop on every thread it may use (see the top of this file). */
static void
backward_pass(const Pass *p)
{
#ifdef HAVE_THREADS
    const int wanted = wanted_threads(p->n_rows);
    if (wanted > 1 && backward_threads(p, wanted) == 0)
        return;
#endif
    backward_loop(p);
}

/* Index of the first valid transition whose four successor corners are not
 * all inside a cost slice of m cells, or -1 when every one is. */
static Py_ssize_t
first_bad_corner(Py_ssize_t size, Py_ssize_t m, const unsigned char *valid,
                 const int32_t *corner00, int64_t stride_e, int64_t stride_t)
{
    const int64_t limit = (int64_t)m - stride_e - stride_t;
    for (Py_ssize_t i = 0; i < size; i++) {
        if (valid[i] && (corner00[i] < 0 || corner00[i] >= limit))
            return i;
    }
    return -1;
}

/* First step whose box [lo, hi) of rows or columns is not within
 * 0 <= lo <= hi <= n_rows or n_cols, or -1. */
static Py_ssize_t
first_bad_box(Py_ssize_t n_steps, Py_ssize_t n_rows, Py_ssize_t n_cols, const int64_t *boxes)
{
    for (Py_ssize_t n = 0; n < n_steps; n++) {
        const int64_t *box = boxes + 4 * n;
        if (box[0] < 0 || box[0] > box[1] || box[1] > n_rows
            || box[2] < 0 || box[2] > box[3] || box[3] > n_cols)
            return n;
    }
    return -1;
}

enum {
    COST, ACTION, VALID, CORNER00, FRAC_E, FRAC_THETA, CYC_FADE, JE, CAL, SCALE, P_D, BOXES,
    N_ARRAYS
};

static const struct {
    const char *name;
    const char *formats; /* accepted struct-module item codes */
    Py_ssize_t itemsize;
    int ndim;
    int writable;
} SPECS[N_ARRAYS] = {
    [COST] = {"cost", "d", 8, 3, 1},
    [ACTION] = {"action_kw", "d", 8, 3, 1},
    [VALID] = {"valid", "B", 1, 2, 0},
    /* int32 is 'i', and 'l' where long has 32 bits */
    [CORNER00] = {"corner00", "il", 4, 2, 0},
    [FRAC_E] = {"frac_e", "d", 8, 2, 0},
    [FRAC_THETA] = {"frac_theta", "d", 8, 2, 0},
    [CYC_FADE] = {"cyc_fade", "d", 8, 2, 0},
    [JE] = {"je", "d", 8, 3, 0},
    [CAL] = {"cal", "d", 8, 2, 0},
    [SCALE] = {"scale", "d", 8, 1, 0},
    [P_D] = {"p_d", "d", 8, 1, 0},
    /* int64 is 'l' where long has 64 bits (Linux), 'q' elsewhere */
    [BOXES] = {"boxes", "lq", 8, 2, 0},
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
"              cyc_fade, je, cal, scale, p_d, penalty, n_rows, boxes)\n"
"\n"
"Backward induction over flattened state cells for B scenarios that share\n"
"the transition table; fills cost[b, N-1..0] and action_kw[b] in place from\n"
"cost[b, N], computing at step n only the rows [boxes[n, 0], boxes[n, 1])\n"
"and columns [boxes[n, 2], boxes[n, 3]) of the n_rows x (M / n_rows) grid;\n"
"the others get penalty and p_d[0]. Arguments as in _kernel_py.backward_pass:\n"
"C-contiguous float64 cost (B, N+1, M) and action_kw (B, N, M); uint8\n"
"valid, int32 corner00 and float64 frac_e, frac_theta and cyc_fade, each\n"
"(M, K); float64 je (N, B, K), cal (B, M), scale (B,) and p_d (K,); int64\n"
"boxes (N, 4).");

static PyObject *
py_backward_pass(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *objs[N_ARRAYS];
    double penalty;
    Py_ssize_t n_rows;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOdnO:backward_pass", &objs[COST],
                          &objs[ACTION], &objs[VALID], &objs[CORNER00],
                          &objs[FRAC_E], &objs[FRAC_THETA], &objs[CYC_FADE],
                          &objs[JE], &objs[CAL], &objs[SCALE], &objs[P_D],
                          &penalty, &n_rows, &objs[BOXES]))
        return NULL;

    Py_buffer views[N_ARRAYS];
    memset(views, 0, sizeof(views));
    PyObject *result = NULL;
    for (int i = 0; i < N_ARRAYS; i++) {
        if (get_array(objs[i], i, &views[i]) < 0)
            goto done;
    }

    const Py_ssize_t n_steps = views[JE].shape[0];
    const Py_ssize_t n_scen = views[JE].shape[1];
    const Py_ssize_t n_actions = views[JE].shape[2];
    const Py_ssize_t m = views[VALID].shape[0];
    if (n_rows < 1 || m % n_rows != 0) {
        PyErr_Format(PyExc_ValueError,
                     "backward_pass: %zd rows, which do not divide M=%zd cells", n_rows, m);
        goto done;
    }
    const Py_ssize_t want[N_ARRAYS][3] = {
        [COST] = {n_scen, n_steps + 1, m},
        [ACTION] = {n_scen, n_steps, m},
        [VALID] = {m, n_actions},
        [CORNER00] = {m, n_actions},
        [FRAC_E] = {m, n_actions},
        [FRAC_THETA] = {m, n_actions},
        [CYC_FADE] = {m, n_actions},
        [JE] = {n_steps, n_scen, n_actions},
        [CAL] = {n_scen, m},
        [SCALE] = {n_scen},
        [P_D] = {n_actions},
        [BOXES] = {n_steps, 4},
    };
    for (int i = 0; i < N_ARRAYS; i++) {
        for (int d = 0; d < views[i].ndim; d++) {
            if (views[i].shape[d] != want[i][d]) {
                PyErr_Format(PyExc_ValueError,
                             "backward_pass: %s has %zd entries along axis %d, expected %zd "
                             "(N=%zd steps, B=%zd scenarios, M=%zd cells, K=%zd actions, "
                             "Ni=%zd rows)",
                             SPECS[i].name, views[i].shape[d], d, want[i][d],
                             n_steps, n_scen, m, n_actions, n_rows);
                goto done;
            }
        }
    }
    if (n_actions < 1) {
        PyErr_SetString(PyExc_ValueError, "backward_pass: no actions (K=0)");
        goto done;
    }
    if (n_scen < 1) {
        PyErr_SetString(PyExc_ValueError, "backward_pass: no scenarios (B=0)");
        goto done;
    }
    const Py_ssize_t n_cols = m / n_rows;
    const int64_t stride_e = n_rows > 1 ? n_cols : 0;
    const int64_t stride_t = n_cols > 1 ? 1 : 0;

    const unsigned char *valid = views[VALID].buf;
    const int32_t *corner00 = views[CORNER00].buf;
    const int64_t *boxes = views[BOXES].buf;
    Py_ssize_t bad_corner, bad_box;
    Py_BEGIN_ALLOW_THREADS
    bad_corner = first_bad_corner(m * n_actions, m, valid, corner00, stride_e, stride_t);
    bad_box = first_bad_box(n_steps, n_rows, n_cols, boxes);
    if (bad_corner < 0 && bad_box < 0) {
        const Transitions t = {valid, corner00, views[FRAC_E].buf, views[FRAC_THETA].buf,
                               views[CYC_FADE].buf, stride_e, stride_t, penalty};
        const Pass pass = {n_steps, n_scen, m, n_actions, n_rows, views[COST].buf,
                           views[ACTION].buf, &t, views[JE].buf, views[CAL].buf,
                           views[SCALE].buf, views[P_D].buf, boxes};
        backward_pass(&pass);
    }
    Py_END_ALLOW_THREADS
    if (bad_corner >= 0) {
        PyErr_Format(PyExc_ValueError,
                     "backward_pass: corner00[%zd, %zd] = %ld puts a successor corner "
                     "outside the %zd cells",
                     bad_corner / n_actions, bad_corner % n_actions,
                     (long)corner00[bad_corner], m);
        goto done;
    }
    if (bad_box >= 0) {
        const int64_t *box = boxes + 4 * bad_box;
        PyErr_Format(PyExc_ValueError,
                     "backward_pass: box [%lld, %lld) x [%lld, %lld) of step %zd "
                     "is not within [0, Ni=%zd] x [0, Nj=%zd]",
                     (long long)box[0], (long long)box[1], (long long)box[2],
                     (long long)box[3], bad_box, n_rows, n_cols);
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
#ifdef HAVE_LANES
    if (__builtin_cpu_supports("avx512f"))
        lanes = 8;
#endif
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddIntConstant(mod, "LANES", lanes) < 0)
        Py_CLEAR(mod);
    return mod;
}
