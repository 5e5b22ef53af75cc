/* Compiled kernels: backward induction (optimizer/_kernel_py.py), one epoch
 * of mini-batch SGD (learning.fit_mlp), and the per-interval step of the
 * circuit model and of the thermal predictor (electrical.energy_step and
 * thermal.temperature_change).
 *
 * Each entry point mirrors its NumPy definition operation for operation, so
 * that both give the same bits, as long as the compiler fuses no multiply
 * and add (setup.py builds with -ffp-contract=off).
 *
 * Backward induction. One pass fills the cost and action grids of B
 * scenarios that share a transition table, reading each (cell, action) of
 * the table once; the action grid holds the index k of each cell's minimum,
 * as int32. Scenario b's candidate for cell c and action k is
 *     (je_b[k] + (scale_b * cyc_fade(c, k) + cal_b[c])) + interpolated successor,
 * where cyc_fade(c, k) is the table's entry for (c, k) and the successor is
 * read from scenario b's own cost slice. It mirrors
 * _kernel_py.backward_pass: the same expression order and the same
 * first-minimum tie rule (strict <), so both kernels give bit-identical cost
 * and action grids. A scenario gets the same bits in a batch as alone:
 * nothing one scenario computes reads another's.
 *
 * The (M, K) table arrays are in tile order (optimizer/transitions.py):
 * each energy row is cut into tiles of TILE = 8 adjacent cells, the row's
 * last Nj mod 8 cells forming one narrower tile of w cells, and action k of
 * the tile's cell l is entry k * w + l of the tile. The pass computes a tile
 * at a time, one cell per lane: lane l keeps the first strict-< minimum of
 * its own cell over k = 0, ..., K - 1, which is the scalar loop's and
 * np.argmin's minimum, so no rule across lanes or actions is needed.
 *
 * On x86-64 CPUs with AVX-512F (checked once, when the module is imported),
 * tile_lanes computes the lanes of a tile with one vector instruction per
 * operation. Each lane does the same IEEE multiplies and adds as the scalar
 * loop tile_cells, in the same order and as separate instructions (no FMA),
 * so a candidate has the same bits in a lane as in the scalar loop. An
 * invalid transition has corner00 = -1, so the lanes that are valid are
 * those whose corner00 is not negative, from one compare on the corners
 * already loaded. When the valid lanes of an action read consecutive
 * corner00 (a run), the four corners of every lane are four masked loads
 * from the successor slice; otherwise four masked gathers. Invalid
 * transitions and lanes outside the box or the tile are masked out, so their
 * corners are never read. The scalar loop runs on other compilers and CPUs.
 *
 * On Linux the pass runs on T threads, the calling thread and T - 1 threads
 * started for the call, where T is the number of CPUs in the process's
 * affinity mask (sched_getaffinity) capped at the n_rows energy rows. The
 * affinity mask is the only control; taskset or os.sched_setaffinity narrows
 * it. At every step the threads claim energy rows from the step's counter,
 * one row at a time; the thread that claims a row fills it with the penalty
 * and action 0 in every scenario and computes its cells that lie in the box,
 * so that the same thread fills and computes each row, and a thread on a CPU
 * that another process keeps busy claims fewer rows. The threads then wait
 * at a barrier, because step n - 1 reads the whole of slice n. Each cell's
 * minimum comes from the same code and the same complete slice n + 1
 * whatever T is and whichever thread claims its row; only the order in
 * which the cells are computed changes, so the bits do not depend on T. A
 * thread that cannot be started leaves the pass to those that were, down to
 * the calling thread alone: the workers wait at a start gate until the
 * caller has published the final T. Elsewhere the calling thread runs the
 * pass alone.
 *
 * Step n computes only the cells of its box, the energy rows [boxes[n, 0],
 * boxes[n, 1]) and temperature columns [boxes[n, 2], boxes[n, 3]) of the
 * n_rows x (M / n_rows) grid, in every scenario. Every other cell gets the
 * penalty and action 0, what a cell without a valid transition gets.
 * The caller chooses boxes closed under the corners the computed cells read,
 * so that no computed cell reads a cell left out (solver.reachable_region);
 * with the whole grid in every box, this is the plain pass over all M cells.
 *
 * A successor's corners lie stride_t = 1 and stride_e = Nj cells apart, or 0
 * along an axis of a single node; the binding works both out from the shape.
 * Corners are stored as int32 and widened to 64 bits before any offset is
 * added.
 *
 * Model arithmetic. The epoch and the steps mirror the NumPy definitions in
 * electrical.py, thermal.py and learning.py:
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
 *   np.sqrt is.
 * Which of two NaN operands an IEEE operation returns is left open, and
 * compilers order the operands of a commutative operation freely, so every
 * NaN result of a step is written as np.nan, on both paths.
 *
 * Activations and errors of a block of nb rows are (width, nb) arrays, so
 * that each inner loop runs along the rows, or along a layer's outputs, with
 * one independent element per iteration; GCC vectorizes such a loop without
 * changing the operations of any element. -fno-trapping-math lets it turn the
 * clamps of explicit_exp into selects; it changes no value. On x86-64 Linux
 * the network loops are compiled twice, for the baseline target and for
 * AVX-512F (GCC's target_clones), and the loader picks the second on CPUs
 * with AVX-512F. Neither uses libm's exp, BLAS or threads, so the bits depend
 * on neither the CPU nor the BLAS thread count.
 *
 * Those loops add each term into a sum kept in memory. On CPUs with AVX-512F
 * (lanes == 8) the folds keep their sums in registers instead, and do each
 * sum's operations in the same order, so they give the same bits:
 * fold_lanes keeps 32 rows of an output in four registers over all inputs,
 * and grad_sums_lanes transposes the error once into rows padded to 8
 * outputs and keeps 4 inputs x 8 outputs of the gradient sums, and the
 * bias's 8, in registers over all rows of the batch; a masked store writes
 * each register once. The plain loops, fold and grad_sums, run elsewhere.
 *
 * sgd_epoch and temperature_change take a network as its sequence of
 * (weights, bias) pairs, the arrays a ThermalModel holds or learning.fit_mlp
 * trains (sgd_epoch updates them in place). Hidden layers are sigmoid units,
 * the output is linear; one layer is the linear model.
 *
 * The steps' inputs broadcast against their outputs as NumPy arrays do: each
 * is read through its own strides, which are 0 along the axes it is
 * broadcast over, so that no broadcast copy is made.
 *
 * The module constant LANES, the cells an instruction computes, is 8 where
 * PyInit finds AVX-512F, and 1 elsewhere.
 *
 * The loops do no bounds checks. The binding checks every buffer's item
 * type, dimensions, contiguity, shape and, for an output, writability, and
 * every index it reads (every successor corner, once per call whatever B is,
 * every box, the permutation and the feature columns) before it runs a loop
 * with the GIL released. The corner check is one pass of minimum and maximum
 * over corner00, cloned for AVX-512F as the network loops are.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define HAVE_AVX512 1
#endif

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#define HAVE_THREADS 1
#endif

/* Always inlined, so that each caller compiles its own copy: each clone of
 * a network loop vectorizes its own, and tile_cells gets one per constant
 * batch size. */
#define INLINE static inline __attribute__((always_inline))

/* A network loop or the corner check, compiled once per target; the loader
 * picks the clone the CPU runs (an ELF ifunc, so Linux only). */
#if defined(HAVE_AVX512) && defined(__linux__)
#define CLONES __attribute__((target_clones("avx512f", "default")))
#else
#define CLONES
#endif

/* Cells of a tile computed per instruction: 8 once PyInit finds AVX-512F,
 * else 1. */
static int lanes = 1;

/* ---- backward induction ---- */

/* Cells per tile of the table's layout, whatever the CPU. */
#define TILE 8

/* The (M, K) transition arrays of one backward pass, in tile order; an
 * invalid transition has corner00 = -1. */
typedef struct {
    const int32_t *corner00;
    const double *frac_e;
    const double *frac_theta;
    const double *cyc_fade;
    int64_t stride_e;
    int64_t stride_t;
    double penalty;
} Transitions;

/* The arguments of one backward pass over n_scen scenarios. cost is
 * (n_scen, N + 1, M), action (n_scen, N, M), je (N, n_scen, K), cal
 * (n_scen, M) and scale (n_scen,). */
typedef struct {
    Py_ssize_t n_steps, n_scen, m, n_actions, n_rows;
    double *cost;
    int32_t *action;
    const Transitions *t;
    const double *je, *cal, *scale;
    const int64_t *boxes;
} Pass;

/* The cells [cell0 + lo, cell0 + hi) of step n, which lie in the tile of w
 * cells that starts at cell0, in every scenario: lane l keeps the first
 * strict-< minimum over the K actions of cell cell0 + l. The loop reads the
 * tile in table order, action by action; taking one cell's K actions at a
 * time, w entries apart, was no faster. Inlined into tile_cells once per
 * batch size it is called with (see tile_lanes). */
INLINE void
tile_cells_of(const Pass *p, Py_ssize_t n, const Py_ssize_t n_scen, Py_ssize_t cell0,
              Py_ssize_t w, Py_ssize_t lo, Py_ssize_t hi)
{
    const Transitions *t = p->t;
    const Py_ssize_t m = p->m, n_actions = p->n_actions;
    const int64_t stride_e = t->stride_e, stride_t = t->stride_t;
    double best[n_scen][TILE];
    Py_ssize_t best_k[n_scen][TILE];
    for (Py_ssize_t b = 0; b < n_scen; b++) {
        for (Py_ssize_t l = lo; l < hi; l++) {
            best[b][l] = INFINITY;
            best_k[b][l] = 0;
        }
    }
    for (Py_ssize_t k = 0; k < n_actions; k++) {
        const Py_ssize_t at = cell0 * n_actions + k * w; /* action k of lane 0 */
        for (Py_ssize_t l = lo; l < hi; l++) {
            const int64_t c00 = t->corner00[at + l];
            if (c00 < 0) {
                for (Py_ssize_t b = 0; b < n_scen; b++) {
                    if (t->penalty < best[b][l]) {
                        best[b][l] = t->penalty;
                        best_k[b][l] = k;
                    }
                }
                continue;
            }
            const double fe = t->frac_e[at + l];
            const double ft = t->frac_theta[at + l];
            const double cyc = t->cyc_fade[at + l];
            for (Py_ssize_t b = 0; b < n_scen; b++) {
                const double *nxt = p->cost + (b * (p->n_steps + 1) + n + 1) * m;
                const double lo_cost = (1.0 - ft) * nxt[c00] + ft * nxt[c00 + stride_t];
                const double hi_cost = (1.0 - ft) * nxt[c00 + stride_e]
                                       + ft * nxt[c00 + stride_e + stride_t];
                const double cand = (p->je[(n * n_scen + b) * n_actions + k]
                                     + (p->scale[b] * cyc + p->cal[b * m + cell0 + l]))
                                    + ((1.0 - fe) * lo_cost + fe * hi_cost);
                if (cand < best[b][l]) {
                    best[b][l] = cand;
                    best_k[b][l] = k;
                }
            }
        }
    }
    for (Py_ssize_t b = 0; b < n_scen; b++) {
        double *cost_n = p->cost + (b * (p->n_steps + 1) + n) * m + cell0;
        int32_t *action_n = p->action + (b * p->n_steps + n) * m + cell0;
        for (Py_ssize_t l = lo; l < hi; l++) {
            cost_n[l] = best[b][l];
            action_n[l] = (int32_t)best_k[b][l];
        }
    }
}

/* tile_cells_of, with the batch size a constant for B = 1 and 2. */
static void
tile_cells(const Pass *p, Py_ssize_t n, Py_ssize_t cell0, Py_ssize_t w, Py_ssize_t lo,
           Py_ssize_t hi)
{
    if (p->n_scen == 1)
        tile_cells_of(p, n, 1, cell0, w, lo, hi);
    else if (p->n_scen == 2)
        tile_cells_of(p, n, 2, cell0, w, lo, hi);
    else
        tile_cells_of(p, n, p->n_scen, cell0, w, lo, hi);
}

#ifdef HAVE_AVX512
/* tile_cells_of with one cell per lane. The valid lanes of action k, those
 * of the box whose corner00 is not -1, read their corners with four masked
 * loads when their corner00 are consecutive (a run), as they are in most
 * tiles of a table, and with four masked gathers otherwise (gathers alone
 * made a full-scale pass 13-42% slower); invalid lanes and lanes outside
 * the box or the tile read nothing. A constant n_scen unrolls the loops
 * over the batch and keeps the lane minima in registers. */
__attribute__((target("avx512f"), always_inline)) static inline void
tile_lanes_of(const Pass *p, Py_ssize_t n, const Py_ssize_t n_scen, Py_ssize_t cell0,
              const Py_ssize_t w, Py_ssize_t lo, Py_ssize_t hi)
{
    const Transitions *t = p->t;
    const Py_ssize_t m = p->m, n_actions = p->n_actions;
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512d zero = _mm512_setzero_pd();
    const __m512d penalty = _mm512_set1_pd(t->penalty);
    const __m512i zero_i = _mm512_setzero_si512();
    const __m512i stride_e = _mm512_set1_epi64(t->stride_e);
    const __m512i stride_t = _mm512_set1_epi64(t->stride_t);
    const __mmask8 inside = (__mmask8)((1u << w) - 1);              /* the tile's lanes */
    const __mmask8 box = (__mmask8)(((1u << hi) - 1) & ~((1u << lo) - 1)); /* those computed */
    const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    const double *nxt[n_scen];
    const double *je[n_scen];
    __m512d scale[n_scen], cal[n_scen], lane_min[n_scen];
    __m512i lane_k[n_scen];
    for (Py_ssize_t b = 0; b < n_scen; b++) {
        nxt[b] = p->cost + (b * (p->n_steps + 1) + n + 1) * m;
        je[b] = p->je + (n * n_scen + b) * n_actions;
        scale[b] = _mm512_set1_pd(p->scale[b]);
        cal[b] = _mm512_maskz_loadu_pd(box, p->cal + b * m + cell0);
        lane_min[b] = _mm512_set1_pd(INFINITY);
        lane_k[b] = _mm512_setzero_si512();
    }
    __m512i k_vec = _mm512_setzero_si512();
    for (Py_ssize_t k = 0; k < n_actions; k++) {
        const Py_ssize_t at = cell0 * n_actions + k * w; /* action k of lane 0 */
        const __m512i c00 = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(
            _mm512_maskz_loadu_epi32((__mmask16)inside, t->corner00 + at)));
        const __mmask8 valid = _mm512_mask_cmpge_epi64_mask(box, c00, zero_i);
        /* the valid lanes form a run when lane l reads corner00 base + l,
         * base taken from lane lo whether it is valid or not, which keeps the
         * scalar load off the compare's path (a base from the first valid
         * lane was slower); every corner00 lies in [-1, M), so nxt + base
         * stays within TILE cells of the slice, and the loads read only the
         * valid lanes */
        const int64_t base = (int64_t)t->corner00[at + lo] - lo;
        const __m512i run = _mm512_add_epi64(lane, _mm512_set1_epi64(base));
        const int loads = _mm512_mask_cmpeq_epi64_mask(valid, c00, run) == valid;
        const __m512d fe = _mm512_maskz_loadu_pd(inside, t->frac_e + at);
        const __m512d ft = _mm512_maskz_loadu_pd(inside, t->frac_theta + at);
        const __m512d ge = _mm512_sub_pd(one, fe);
        const __m512d gt = _mm512_sub_pd(one, ft);
        const __m512d cyc = _mm512_maskz_loadu_pd(inside, t->cyc_fade + at);
        for (Py_ssize_t b = 0; b < n_scen; b++) {
            __m512d n00, n01, n10, n11;
            if (loads) {
                const double *q = nxt[b] + base;
                n00 = _mm512_maskz_loadu_pd(valid, q);
                n01 = _mm512_maskz_loadu_pd(valid, q + t->stride_t);
                n10 = _mm512_maskz_loadu_pd(valid, q + t->stride_e);
                n11 = _mm512_maskz_loadu_pd(valid, q + t->stride_e + t->stride_t);
            } else {
                const __m512i c01 = _mm512_add_epi64(c00, stride_t);
                const __m512i c10 = _mm512_add_epi64(c00, stride_e);
                const __m512i c11 = _mm512_add_epi64(c10, stride_t);
                n00 = _mm512_mask_i64gather_pd(zero, valid, c00, nxt[b], 8);
                n01 = _mm512_mask_i64gather_pd(zero, valid, c01, nxt[b], 8);
                n10 = _mm512_mask_i64gather_pd(zero, valid, c10, nxt[b], 8);
                n11 = _mm512_mask_i64gather_pd(zero, valid, c11, nxt[b], 8);
            }
            const __m512d lo_cost = _mm512_add_pd(_mm512_mul_pd(gt, n00), _mm512_mul_pd(ft, n01));
            const __m512d hi_cost = _mm512_add_pd(_mm512_mul_pd(gt, n10), _mm512_mul_pd(ft, n11));
            const __m512d succ = _mm512_add_pd(_mm512_mul_pd(ge, lo_cost), _mm512_mul_pd(fe, hi_cost));
            const __m512d aging = _mm512_add_pd(_mm512_mul_pd(scale[b], cyc), cal[b]);
            const __m512d cost = _mm512_add_pd(_mm512_add_pd(_mm512_set1_pd(je[b][k]), aging), succ);
            const __m512d cand = _mm512_mask_blend_pd(valid, penalty, cost);
            const __mmask8 lower = _mm512_cmp_pd_mask(cand, lane_min[b], _CMP_LT_OQ);
            lane_min[b] = _mm512_mask_mov_pd(lane_min[b], lower, cand);
            lane_k[b] = _mm512_mask_mov_epi64(lane_k[b], lower, k_vec);
        }
        k_vec = _mm512_add_epi64(k_vec, _mm512_set1_epi64(1));
    }
    for (Py_ssize_t b = 0; b < n_scen; b++) {
        _mm512_mask_storeu_pd(p->cost + (b * (p->n_steps + 1) + n) * m + cell0, box, lane_min[b]);
        _mm512_mask_cvtepi64_storeu_epi32(p->action + (b * p->n_steps + n) * m + cell0, box,
                                          lane_k[b]);
    }
}

/* tile_lanes_of, with the tile width a constant for whole tiles and the
 * batch size one for B = 1 and 2 of them. */
__attribute__((target("avx512f"))) static void
tile_lanes(const Pass *p, Py_ssize_t n, Py_ssize_t cell0, Py_ssize_t w, Py_ssize_t lo,
           Py_ssize_t hi)
{
    if (w < TILE)
        tile_lanes_of(p, n, p->n_scen, cell0, w, lo, hi);
    else if (p->n_scen == 1)
        tile_lanes_of(p, n, 1, cell0, TILE, lo, hi);
    else if (p->n_scen == 2)
        tile_lanes_of(p, n, 2, cell0, TILE, lo, hi);
    else
        tile_lanes_of(p, n, p->n_scen, cell0, TILE, lo, hi);
}
#endif

/* Row i of slice n of every scenario: the penalty and action 0 in every cell,
 * then the cells of the box computed from slice n + 1, one tile at a time. */
static void
step_row(const Pass *p, Py_ssize_t n, Py_ssize_t i)
{
    const Py_ssize_t m = p->m, n_cols = m / p->n_rows;
    for (Py_ssize_t b = 0; b < p->n_scen; b++) {
        double *cost_i = p->cost + (b * (p->n_steps + 1) + n) * m + i * n_cols;
        int32_t *action_i = p->action + (b * p->n_steps + n) * m + i * n_cols;
        for (Py_ssize_t j = 0; j < n_cols; j++) {
            cost_i[j] = p->t->penalty;
            action_i[j] = 0;
        }
    }
    const int64_t *box = p->boxes + 4 * n;
    if (i < box[0] || i >= box[1])
        return;
    const Py_ssize_t left = box[2], right = box[3];
    for (Py_ssize_t j0 = left - left % TILE; j0 < right; j0 += TILE) {
        const Py_ssize_t w = n_cols - j0 < TILE ? n_cols - j0 : TILE;
        const Py_ssize_t lo = left > j0 ? left - j0 : 0;
        const Py_ssize_t hi = right - j0 < w ? right - j0 : w;
#ifdef HAVE_AVX512
        if (lanes == 8) {
            tile_lanes(p, n, i * n_cols + j0, w, lo, hi);
            continue;
        }
#endif
        tile_cells(p, n, i * n_cols + j0, w, lo, hi);
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
/* The threads of one pass. n_threads is 0 until the caller publishes it;
 * next_row[n] is the next row of step n that no thread has claimed. */
typedef struct {
    const Pass *pass;
    pthread_mutex_t lock;
    pthread_cond_t published;
    int n_threads;
    pthread_barrier_t step_done;
    Py_ssize_t *next_row;
} Team;

typedef struct {
    Team *team;
    int id;
} Worker;

/* backward_loop over the rows this thread claims; the n_threads threads
 * meet at team->step_done after each step but the last. */
static void
backward_rows(Team *team, int n_threads)
{
    const Pass *p = team->pass;
    for (Py_ssize_t n = p->n_steps - 1; n >= 0; n--) {
        Py_ssize_t i;
        while ((i = __atomic_fetch_add(&team->next_row[n], 1, __ATOMIC_RELAXED)) < p->n_rows)
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
        backward_rows(team, n_threads);
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
 * threads as start; -1, with nothing computed, when the start gate or the
 * row counters cannot be set up. */
static int
backward_threads(const Pass *p, int wanted)
{
    Team team = {.pass = p, .n_threads = 0};
    team.next_row = PyMem_RawCalloc((size_t)p->n_steps, sizeof(Py_ssize_t));
    if (team.next_row == NULL)
        return -1;
    if (pthread_mutex_init(&team.lock, NULL) != 0) {
        PyMem_RawFree(team.next_row);
        return -1;
    }
    if (pthread_cond_init(&team.published, NULL) != 0) {
        pthread_mutex_destroy(&team.lock);
        PyMem_RawFree(team.next_row);
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
    backward_rows(&team, n_threads);
    for (int w = 1; w < started; w++)
        pthread_join(threads[w], NULL);
    if (n_threads > 1)
        pthread_barrier_destroy(&team.step_done);
    pthread_cond_destroy(&team.published);
    pthread_mutex_destroy(&team.lock);
    PyMem_RawFree(team.next_row);
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

/* ---- model arithmetic ---- */

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

#ifdef HAVE_AVX512
/* fold over the rows [r0, r0 + 8 * n_regs) of one output o, of which the
 * first left are rows of the block; each of the n_regs registers keeps 8 rows
 * over all n_in inputs. */
__attribute__((target("avx512f"), always_inline)) static inline void
fold_rows_of(const double *restrict wo, Py_ssize_t n_in, Py_ssize_t in_stride,
             const double *restrict a, Py_ssize_t nb, Py_ssize_t r0, Py_ssize_t left,
             const int n_regs, double *restrict zo)
{
    __mmask8 rows[4];
    __m512d sum[4];
    for (int u = 0; u < n_regs; u++) {
        const Py_ssize_t in_reg = left - 8 * u;
        rows[u] = (__mmask8)(in_reg >= 8 ? 0xff : (1u << in_reg) - 1);
        sum[u] = _mm512_mul_pd(_mm512_set1_pd(wo[0]),
                               _mm512_maskz_loadu_pd(rows[u], a + r0 + 8 * u));
    }
    for (Py_ssize_t i = 1; i < n_in; i++) {
        const __m512d wi = _mm512_set1_pd(wo[i * in_stride]);
        const double *ai = a + i * nb + r0;
        for (int u = 0; u < n_regs; u++)
            sum[u] = _mm512_add_pd(sum[u],
                                   _mm512_mul_pd(wi, _mm512_maskz_loadu_pd(rows[u], ai + 8 * u)));
    }
    for (int u = 0; u < n_regs; u++)
        _mm512_mask_storeu_pd(zo + r0 + 8 * u, rows[u], sum[u]);
}

/* fold with the sums of 32 rows of an output in four registers over all
 * inputs, instead of in memory: the same folds, so the same bits. */
__attribute__((target("avx512f"))) static void
fold_lanes(const double *restrict w, Py_ssize_t n_in, Py_ssize_t in_stride, Py_ssize_t n_out,
           Py_ssize_t out_stride, const double *restrict a, Py_ssize_t nb, double *restrict z)
{
    for (Py_ssize_t o = 0; o < n_out; o++) {
        const double *wo = w + o * out_stride;
        double *zo = z + o * nb;
        for (Py_ssize_t r0 = 0; r0 < nb; r0 += 32) {
            const Py_ssize_t left = nb - r0;
            switch (left < 32 ? (left + 7) / 8 : 4) {
            case 1:
                fold_rows_of(wo, n_in, in_stride, a, nb, r0, left, 1, zo);
                break;
            case 2:
                fold_rows_of(wo, n_in, in_stride, a, nb, r0, left, 2, zo);
                break;
            case 3:
                fold_rows_of(wo, n_in, in_stride, a, nb, r0, left, 3, zo);
                break;
            default:
                fold_rows_of(wo, n_in, in_stride, a, nb, r0, left, 4, zo);
            }
        }
    }
}
#endif

/* A network: n_layers + 1 widths, inputs first, and each layer's weights
 * (widths[l], widths[l + 1]), row-major, and bias (widths[l + 1],). */
typedef struct {
    Py_ssize_t n_layers;
    Py_ssize_t *widths;
    double **w, **b;
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
#ifdef HAVE_AVX512
        if (lanes == 8)
            fold_lanes(net->w[l], fi, fo, fo, 1, a, nb, z);
        else
#endif
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
    Net net; /* its layers are updated in place */
    const double *x, *y;
    const int64_t *perm;
    double *pred;
    Py_ssize_t n, batch;
    double lr;
    /* one layer's gradients; every layer's activations over a batch; one
     * layer's error, (width, nb) twice (this layer's and the one below) and
     * (nb, width) once, each row padded to a multiple of 8 outputs when
     * grad_sums_lanes computes the sums */
    double *grads, *acts, *delta, *next, *delta_t;
} Epoch;

/* The gradient sums of a layer with fi inputs a (fi, nb) and fo outputs:
 * gw[j, k] = a[j, 0] * d[0, k], then += a[j, r] * d[r, k] for r = 1, ...,
 * nb - 1, and gb[k] the same fold of d[r, k] alone, where d[r, k] =
 * delta[k * nb + r]; delta_t gets d as (nb, fo). */
INLINE void
grad_sums(const double *a, Py_ssize_t fi, Py_ssize_t fo, Py_ssize_t nb, const double *delta,
          double *delta_t, double *gw, double *gb)
{
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
}

#ifdef HAVE_AVX512
/* The folds of grad_sums for n_in inputs a (n_in, nb), and for the bias if
 * bias is set, over one block of 8 outputs: d holds the block's errors of row
 * r at d + r * n8, and the lanes in outs are stored, in gw's rows fo apart
 * and in gb. Each sum stays in a register over all nb rows. */
__attribute__((target("avx512f"), always_inline)) static inline void
grad_block_of(const double *a, const int n_in, const int bias, Py_ssize_t nb, const double *d,
              Py_ssize_t n8, __mmask8 outs, double *gw, Py_ssize_t fo, double *gb)
{
    __m512d dr = _mm512_loadu_pd(d);
    __m512d sum[4], sum_b = dr;
    for (int i = 0; i < n_in; i++)
        sum[i] = _mm512_mul_pd(_mm512_set1_pd(a[i * nb]), dr);
    for (Py_ssize_t r = 1; r < nb; r++) {
        dr = _mm512_loadu_pd(d + r * n8);
        for (int i = 0; i < n_in; i++)
            sum[i] = _mm512_add_pd(sum[i], _mm512_mul_pd(_mm512_set1_pd(a[i * nb + r]), dr));
        if (bias)
            sum_b = _mm512_add_pd(sum_b, dr);
    }
    for (int i = 0; i < n_in; i++)
        _mm512_mask_storeu_pd(gw + i * fo, outs, sum[i]);
    if (bias)
        _mm512_mask_storeu_pd(gb, outs, sum_b);
}

/* grad_sums with 8 outputs per register, the same folds in the same order,
 * so the same bits (register blocking: Goto and van de Geijn, ACM TOMS
 * 34(3), 2008). delta_t gets d as nb rows of n8 = fo rounded up to 8
 * outputs, the padding 0. Each block of 8 outputs takes the inputs 4 at a
 * time, the first (fi - 1) % 4 + 1 of them with the bias, and stores each of
 * its sums once. */
__attribute__((target("avx512f"))) static void
grad_sums_lanes(const double *a, Py_ssize_t fi, Py_ssize_t fo, Py_ssize_t nb,
                const double *delta, double *delta_t, double *gw, double *gb)
{
    const Py_ssize_t n8 = (fo + 7) / 8 * 8;
    for (Py_ssize_t r = 0; r < nb; r++) {
        for (Py_ssize_t k = 0; k < n8; k++)
            delta_t[r * n8 + k] = k < fo ? delta[k * nb + r] : 0.0;
    }
    const Py_ssize_t first = (fi - 1) % 4 + 1;
    for (Py_ssize_t k0 = 0; k0 < fo; k0 += 8) {
        const __mmask8 outs = (__mmask8)(fo - k0 < 8 ? (1u << (fo - k0)) - 1 : 0xff);
        const double *d = delta_t + k0;
        double *g = gw + k0;
        switch (first) {
        case 1:
            grad_block_of(a, 1, 1, nb, d, n8, outs, g, fo, gb + k0);
            break;
        case 2:
            grad_block_of(a, 2, 1, nb, d, n8, outs, g, fo, gb + k0);
            break;
        case 3:
            grad_block_of(a, 3, 1, nb, d, n8, outs, g, fo, gb + k0);
            break;
        default:
            grad_block_of(a, 4, 1, nb, d, n8, outs, g, fo, gb + k0);
        }
        for (Py_ssize_t j = first; j < fi; j += 4)
            grad_block_of(a + j * nb, 4, 0, nb, d, n8, outs, g + j * fo, fo, NULL);
    }
}
#endif

/* SGD steps over the rows perm[0..n), batch rows at a time, as
 * learning.fit_mlp's NumPy loop; pred[s] gets the prediction for row
 * perm[s] that its step computed before updating. Layer l is updated once
 * its gradients and the error it passes down are computed, which is the
 * last time the step reads it. */
CLONES static void
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
            double *w = net->w[l], *b = net->b[l];
            const double *a = e->acts + a0;
            double *gw = e->grads, *gb = gw + fi * fo;
#ifdef HAVE_AVX512
            if (lanes == 8)
                grad_sums_lanes(a, fi, fo, nb, delta, delta_t, gw, gb);
            else
#endif
                grad_sums(a, fi, fo, nb, delta, delta_t, gw, gb);
            if (l > 0) {
#ifdef HAVE_AVX512
                if (lanes == 8)
                    fold_lanes(w, fo, 1, fi, fo, delta, nb, next);
                else
#endif
                    fold(w, fo, 1, fi, fo, delta, nb, next);
                for (Py_ssize_t i = 0; i < fi * nb; i++)
                    next[i] = (next[i] * a[i]) * (1.0 - a[i]); /* sigmoid derivative */
                double *t = delta;
                delta = next;
                next = t;
            }
            for (Py_ssize_t i = 0; i < fi * fo; i++)
                w[i] -= e->lr * gw[i];
            for (Py_ssize_t k = 0; k < fo; k++)
                b[k] -= e->lr * gb[k];
            a_end = a0;
        }
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

/* Rows per block of temperature_change: the activations of a 2x10 network
 * over a block stay within a 32 KB L1 data cache. Every row is computed
 * alone, so the block size changes no bits. */
#define PREDICT_BLOCK_ROWS 128

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
 * of each element (thermal.feature_matrix), normalized, then the network's
 * output (thermal.predict_batch). */
CLONES static void
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
        const double *y = forward(&t->net, t->acts, nb);
        for (Py_ssize_t r = 0; r < nb; r++)
            t->out[start + r] = y[r] != y[r] ? quiet_nan() : y[r];
    }
}

/* ---- binding ---- */

/* Spec.ndim of an input that broadcasts against the output's shape; it may
 * have any strides. */
#define BROADCAST (-1)
/* Spec.ndim of an output of any number of dimensions. */
#define ANY_NDIM (-2)

typedef struct {
    const char *name;
    char kind; /* 'd' float64, 'q' int64, 'i' int32 or 'B' uint8 */
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
    /* the struct-module item codes of each kind: int64 is 'l' where long has
     * 64 bits (Linux), 'q' elsewhere; int32 is 'i', and 'l' where long has 32 */
    const char *accepted = "B";
    Py_ssize_t itemsize = 1;
    switch (spec->kind) {
    case 'd':
        accepted = "d";
        itemsize = 8;
        break;
    case 'q':
        accepted = "lq";
        itemsize = 8;
        break;
    case 'i':
        accepted = "il";
        itemsize = 4;
        break;
    }
    if (view->itemsize != itemsize || strlen(fmt) != 1 || strchr(accepted, fmt[0]) == NULL) {
        PyErr_Format(PyExc_TypeError,
                     "%s: %s has item format '%s' of %zd bytes, expected one of '%s' of %zd bytes",
                     func, spec->name, fmt, view->itemsize, accepted, itemsize);
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

/* Index of the first entry of corner00 that is neither -1 (an invalid
 * transition) nor a corner whose four successor corners all lie inside a
 * cost slice of m cells, or -1 when there is none. One pass of minimum and
 * maximum, which GCC vectorizes, clears a valid table; only a table it does
 * not clear is searched for the first bad entry. */
CLONES static Py_ssize_t
first_bad_corner(Py_ssize_t size, Py_ssize_t m, const int32_t *corner00, int64_t stride_e,
                 int64_t stride_t)
{
    const int64_t limit = (int64_t)m - stride_e - stride_t;
    int32_t lo = -1, hi = -1;
    for (Py_ssize_t i = 0; i < size; i++) {
        lo = corner00[i] < lo ? corner00[i] : lo;
        hi = corner00[i] > hi ? corner00[i] : hi;
    }
    if (lo >= -1 && hi < limit)
        return -1;
    for (Py_ssize_t i = 0; i < size; i++) {
        if (corner00[i] < -1 || corner00[i] >= limit)
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

/* The Net of a sequence of (weights, bias) pairs: float64 C-contiguous
 * weights (fan_in, fan_out), each fan_in the previous fan_out, and biases
 * (fan_out,), the last fan_out 1, all writable if writable is set. *views
 * gets the 2 * n_layers buffers; release them with net_release, also on
 * failure. The Net reads into them. */
static int
net_from_layers(const char *func, PyObject *layers, int writable, Net *net, Py_buffer **views)
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
    net->n_layers = n_layers;
    net->w = PyMem_Malloc((size_t)n_layers * 2 * sizeof(double *)
                          + (size_t)(n_layers + 1) * sizeof(Py_ssize_t));
    *views = PyMem_Calloc((size_t)(2 * n_layers), sizeof(Py_buffer));
    if (net->w == NULL || *views == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    net->b = net->w + n_layers;
    net->widths = (Py_ssize_t *)(net->b + n_layers);
    for (Py_ssize_t l = 0; l < n_layers; l++) {
        PyObject *pair = PySequence_Fast(PySequence_Fast_GET_ITEM(seq, l),
                                         "layers must be a sequence of (weights, bias) pairs");
        if (pair == NULL)
            goto done;
        char names[2][48];
        snprintf(names[0], sizeof names[0], "layers[%zd] weights", l);
        snprintf(names[1], sizeof names[1], "layers[%zd] bias", l);
        const Spec specs[2] = {{names[0], 'd', 2, writable}, {names[1], 'd', 1, writable}};
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

/* Releases what net_from_layers got. */
static void
net_release(Net *net, Py_buffer *views)
{
    if (views != NULL)
        release_all(views, 2 * net->n_layers);
    PyMem_Free(views);
    PyMem_Free(net->w);
    net->w = NULL;
}

/* The scratch a network's activations need over blocks of nb rows, in
 * doubles, or -1 with MemoryError set; the bytes of 8 such arrays fit in a
 * Py_ssize_t. Each width is at most the length of a buffer, so their sum does
 * not overflow. */
static Py_ssize_t
acts_size(const Net *net, Py_ssize_t nb)
{
    Py_ssize_t sum = 0;
    for (Py_ssize_t l = 0; l <= net->n_layers; l++)
        sum += net->widths[l];
    if (sum > PY_SSIZE_T_MAX / 8 / 8 / nb) {
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

enum {
    COST, ACTION, CORNER00, FRAC_E, FRAC_THETA, CYC_FADE, JE, CAL, SCALE, BOXES,
    N_ARRAYS
};

static const Spec PASS_SPECS[N_ARRAYS] = {
    [COST] = {"cost", 'd', 3, 1},
    [ACTION] = {"action", 'i', 3, 1},
    [CORNER00] = {"corner00", 'i', 2, 0},
    [FRAC_E] = {"frac_e", 'd', 2, 0},
    [FRAC_THETA] = {"frac_theta", 'd', 2, 0},
    [CYC_FADE] = {"cyc_fade", 'd', 2, 0},
    [JE] = {"je", 'd', 3, 0},
    [CAL] = {"cal", 'd', 2, 0},
    [SCALE] = {"scale", 'd', 1, 0},
    [BOXES] = {"boxes", 'q', 2, 0},
};

PyDoc_STRVAR(backward_pass_doc,
"backward_pass(cost, action, corner00, frac_e, frac_theta, cyc_fade,\n"
"              je, cal, scale, penalty, n_rows, boxes)\n"
"\n"
"Backward induction over flattened state cells for B scenarios that share\n"
"the transition table; fills cost[b, N-1..0] and action[b] in place from\n"
"cost[b, N], computing at step n only the rows [boxes[n, 0], boxes[n, 1])\n"
"and columns [boxes[n, 2], boxes[n, 3]) of the n_rows x (M / n_rows) grid;\n"
"the others get penalty and action 0. action gets the index of each cell's\n"
"minimum over the K actions. Arguments as in _kernel_py.backward_pass:\n"
"C-contiguous float64 cost (B, N+1, M) and int32 action (B, N, M); int32\n"
"corner00, -1 for an invalid transition, and float64 frac_e, frac_theta and\n"
"cyc_fade, each (M, K) in a TransitionTable's tile order; float64 je\n"
"(N, B, K), cal (B, M) and scale (B,); int64 boxes (N, 4).");

static PyObject *
py_backward_pass(PyObject *self, PyObject *args)
{
    (void)self;
    const char *func = "backward_pass";
    PyObject *objs[N_ARRAYS];
    double penalty;
    Py_ssize_t n_rows;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOdnO:backward_pass", &objs[COST], &objs[ACTION],
                          &objs[CORNER00], &objs[FRAC_E], &objs[FRAC_THETA], &objs[CYC_FADE],
                          &objs[JE], &objs[CAL], &objs[SCALE], &penalty, &n_rows,
                          &objs[BOXES]))
        return NULL;
    Py_buffer views[N_ARRAYS];
    memset(views, 0, sizeof(views));
    PyObject *result = NULL;
    if (get_arrays(func, objs, PASS_SPECS, N_ARRAYS, views) < 0)
        goto done;
    const Py_ssize_t n_steps = views[JE].shape[0];
    const Py_ssize_t n_scen = views[JE].shape[1];
    const Py_ssize_t n_actions = views[JE].shape[2];
    const Py_ssize_t m = views[CORNER00].shape[0];
    if (n_rows < 1 || m % n_rows != 0) {
        PyErr_Format(PyExc_ValueError, "%s: %zd rows, which do not divide M=%zd cells", func,
                     n_rows, m);
        goto done;
    }
    const Py_ssize_t want[N_ARRAYS][3] = {
        [COST] = {n_scen, n_steps + 1, m},
        [ACTION] = {n_scen, n_steps, m},
        [CORNER00] = {m, n_actions},
        [FRAC_E] = {m, n_actions},
        [FRAC_THETA] = {m, n_actions},
        [CYC_FADE] = {m, n_actions},
        [JE] = {n_steps, n_scen, n_actions},
        [CAL] = {n_scen, m},
        [SCALE] = {n_scen},
        [BOXES] = {n_steps, 4},
    };
    for (int i = 0; i < N_ARRAYS; i++) {
        for (int d = 0; d < views[i].ndim; d++) {
            if (check_length(func, &views[i], PASS_SPECS[i].name, d, want[i][d]) < 0)
                goto done;
        }
    }
    if (n_actions < 1) {
        PyErr_Format(PyExc_ValueError, "%s: no actions (K=0)", func);
        goto done;
    }
    if (n_scen < 1) {
        PyErr_Format(PyExc_ValueError, "%s: no scenarios (B=0)", func);
        goto done;
    }
    const Py_ssize_t n_cols = m / n_rows;
    const int64_t stride_e = n_rows > 1 ? n_cols : 0;
    const int64_t stride_t = n_cols > 1 ? 1 : 0;

    const int32_t *corner00 = views[CORNER00].buf;
    const int64_t *boxes = views[BOXES].buf;
    Py_ssize_t bad_corner, bad_box;
    Py_BEGIN_ALLOW_THREADS
    bad_corner = first_bad_corner(m * n_actions, m, corner00, stride_e, stride_t);
    bad_box = first_bad_box(n_steps, n_rows, n_cols, boxes);
    if (bad_corner < 0 && bad_box < 0) {
        const Transitions t = {corner00, views[FRAC_E].buf, views[FRAC_THETA].buf,
                               views[CYC_FADE].buf, stride_e, stride_t, penalty};
        const Pass pass = {n_steps, n_scen, m, n_actions, n_rows, views[COST].buf,
                           views[ACTION].buf, &t, views[JE].buf, views[CAL].buf,
                           views[SCALE].buf, boxes};
        backward_pass(&pass);
    }
    Py_END_ALLOW_THREADS
    if (bad_corner >= 0) {
        /* the cell and action of the entry, whose tile starts at column j0 */
        const Py_ssize_t i = bad_corner / (n_cols * n_actions);
        const Py_ssize_t in_row = bad_corner % (n_cols * n_actions);
        const Py_ssize_t j0 = in_row / (TILE * n_actions) * TILE;
        const Py_ssize_t w = n_cols - j0 < TILE ? n_cols - j0 : TILE;
        const Py_ssize_t in_tile = in_row - j0 * n_actions;
        PyErr_Format(PyExc_ValueError,
                     "%s: corner00[%zd, %zd] = %ld (cell %zd, action %zd) puts a successor "
                     "corner outside the %zd cells",
                     func, bad_corner / n_actions, bad_corner % n_actions,
                     (long)corner00[bad_corner], i * n_cols + j0 + in_tile % w, in_tile / w, m);
        goto done;
    }
    if (bad_box >= 0) {
        const int64_t *box = boxes + 4 * bad_box;
        PyErr_Format(PyExc_ValueError,
                     "%s: box [%lld, %lld) x [%lld, %lld) of step %zd "
                     "is not within [0, Ni=%zd] x [0, Nj=%zd]",
                     func, (long long)box[0], (long long)box[1], (long long)box[2],
                     (long long)box[3], bad_box, n_rows, n_cols);
        goto done;
    }
    result = Py_NewRef(Py_None);

done:
    release_all(views, N_ARRAYS);
    return result;
}

enum { E_X, E_Y, E_PERM, E_PRED, E_N };

static const Spec EPOCH_SPECS[E_N] = {
    [E_X] = {"x", 'd', 2, 0},
    [E_Y] = {"y", 'd', 1, 0},
    [E_PERM] = {"perm", 'q', 1, 0},
    [E_PRED] = {"pred", 'd', 1, 1},
};

PyDoc_STRVAR(sgd_epoch_doc,
"sgd_epoch(layers, x, y, perm, pred, learning_rate, batch_size)\n"
"\n"
"One epoch of mini-batch SGD on the mean squared error, as learning.fit_mlp's\n"
"NumPy loop: the rows perm[0..n) in order, batch_size rows per step, each\n"
"step subtracting learning_rate times learning.mlp_gradients from the\n"
"network's weights and biases in place. pred[s] gets the prediction for row\n"
"perm[s] made by its step. Every sum is the NumPy loop's left fold, in the\n"
"same order on every CPU; with AVX-512F the sums stay in vector registers\n"
"over a fold, which changes no bit. layers is the network's sequence of\n"
"(weights, bias) pairs, writable float64 and C-contiguous: weights\n"
"(fan_in, fan_out), the first fan_in the number of inputs and each other\n"
"the fan_out before it, bias (fan_out,), the last fan_out 1. x is float64\n"
"(n, inputs), y and pred float64 (n,), perm an int64 (n,) array of row\n"
"indices.");

static PyObject *
py_sgd_epoch(PyObject *self, PyObject *args)
{
    (void)self;
    const char *func = "sgd_epoch";
    PyObject *objs[E_N], *layers;
    double lr;
    Py_ssize_t batch;
    if (!PyArg_ParseTuple(args, "OOOOOdn:sgd_epoch", &layers, &objs[E_X], &objs[E_Y],
                          &objs[E_PERM], &objs[E_PRED], &lr, &batch))
        return NULL;
    Py_buffer views[E_N], *layer_views = NULL;
    memset(views, 0, sizeof(views));
    PyObject *result = NULL;
    double *scratch = NULL;
    Net net = {0};
    if (get_arrays(func, objs, EPOCH_SPECS, E_N, views) < 0
        || net_from_layers(func, layers, 1, &net, &layer_views) < 0)
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
    /* grads: the largest layer, whose size is bounded by its buffers'; acts:
     * every layer over a batch; delta, next: one layer's error, at most as
     * wide as all layers together; delta_t: the widest layer's error, with
     * its outputs rounded up to a multiple of 8, at most 4 * (fo + 1) and so
     * at most 4 * n_acts doubles in all */
    Py_ssize_t n_grads = 0, n8 = 0;
    for (Py_ssize_t l = 0; l < net.n_layers; l++) {
        const Py_ssize_t fo = net.widths[l + 1], size = (net.widths[l] + 1) * fo;
        n_grads = size > n_grads ? size : n_grads;
        n8 = (fo + 7) / 8 * 8 > n8 ? (fo + 7) / 8 * 8 : n8;
    }
    const Py_ssize_t nb = batch < n ? batch : (n > 0 ? n : 1);
    const Py_ssize_t n_acts = acts_size(&net, nb);
    if (n_acts < 0 || (scratch = alloc_doubles(n_grads + 3 * n_acts + n8 * nb)) == NULL)
        goto done;
    const Epoch epoch = {
        .net = net,
        .x = views[E_X].buf,
        .y = views[E_Y].buf,
        .perm = perm,
        .pred = views[E_PRED].buf,
        .n = n,
        .batch = batch,
        .lr = lr,
        .grads = scratch,
        .acts = scratch + n_grads,
        .delta = scratch + n_grads + n_acts,
        .next = scratch + n_grads + 2 * n_acts,
        .delta_t = scratch + n_grads + 3 * n_acts,
    };
    Py_BEGIN_ALLOW_THREADS
    epoch_body(&epoch);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);

done:
    PyMem_RawFree(scratch);
    net_release(&net, layer_views);
    release_all(views, E_N);
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
"gets the network's output for the inputs (features[cols[j]] - means[j]) /\n"
"stds[j], where features are (|p|, q_loss, |delta_e|, theta) of that element\n"
"in thermal.FEATURE_NAMES' order, and np.nan for any NaN output. p, q_loss,\n"
"delta_e and theta are float64 arrays of any strides that broadcast to the\n"
"shape of out, a C-contiguous float64 array. cols is int64 (n_inputs,) with\n"
"values in [0, 4), means and stds float64 (n_inputs,). layers is the model's\n"
"sequence of (weights, bias) pairs, float64 and C-contiguous: weights\n"
"(fan_in, fan_out), the first fan_in n_inputs and each other the fan_out\n"
"before it, bias (fan_out,), the last fan_out 1.");

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
        || net_from_layers(func, layers, 0, &net, &layer_views) < 0)
        goto done;
    const Py_ssize_t f = net.widths[0];
    if (check_length(func, &views[T_COLS], "cols", 0, f) < 0
        || check_length(func, &views[T_MEANS], "means", 0, f) < 0
        || check_length(func, &views[T_STDS], "stds", 0, f) < 0)
        goto done;
    const int64_t *cols = views[T_COLS].buf;
    const Py_ssize_t bad = first_out_of_range(cols, f, N_OPERANDS);
    if (bad >= 0) {
        PyErr_Format(PyExc_ValueError, "%s: cols[%zd] = %lld is not a column of the %d features",
                     func, bad, (long long)cols[bad], N_OPERANDS);
        goto done;
    }
    if (get_shape(func, &views[T_OUT], "out", &t.shape) < 0)
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
    t.cols = cols;
    t.out = views[T_OUT].buf;
    t.acts = scratch;
    t.features = scratch + n_acts;
    Py_BEGIN_ALLOW_THREADS
    thermal_body(&t);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);

done:
    PyMem_RawFree(scratch);
    net_release(&net, layer_views);
    release_all(views, T_N);
    return result;
}

static PyMethodDef methods[] = {
    {"backward_pass", py_backward_pass, METH_VARARGS, backward_pass_doc},
    {"sgd_epoch", py_sgd_epoch, METH_VARARGS, sgd_epoch_doc},
    {"energy_step", py_energy_step, METH_VARARGS, energy_step_doc},
    {"temperature_change", py_temperature_change, METH_VARARGS, temperature_change_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled backward induction, MLP training epoch, and circuit and thermal step; "
             "see optimizer/_kernel_py.py, learning.py, electrical.py and thermal.py for the "
             "NumPy definitions.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
#ifdef HAVE_AVX512
    if (__builtin_cpu_supports("avx512f"))
        lanes = 8;
#endif
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddIntConstant(mod, "LANES", lanes) < 0)
        Py_CLEAR(mod);
    return mod;
}
