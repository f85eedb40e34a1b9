/*
 * Compiled kernels of the native backend.
 *
 * Two entry points over the flat arrays the Python side already builds:
 *
 *   repro_traverse  forest traversal of NativeForest (numeric splits, NaN
 *                   default routing, categorical bitsets, per-class
 *                   groups), float64 accumulation in tree order.
 *   repro_shap      exact path-wise TreeSHAP over a PathSet: edge
 *                   satisfaction, the per-slot AND and the EXTEND/UNWIND
 *                   recurrence of GPUTreeShap.
 *
 * Both reproduce the numpy kernels bit for bit: every product and sum is
 * evaluated in the numpy kernel's order, the recurrence's constant ratios
 * are the same IEEE divisions (read from a table built by the caller),
 * and attributions are scatter-added in the order np.add.at applies them.
 * That only holds when the compiler neither contracts a*b+c into an FMA
 * nor reassociates, so this file must be built with -ffp-contract=off and
 * without -ffast-math.
 *
 * Every array argument is owned by the Python caller; the kernels never
 * keep a pointer past the call.
 */
#include <stdint.h>
#include <stdlib.h>

/* Bumped whenever a struct layout or a signature changes, so a stale
 * cached library is never called with the wrong arguments. */
#define REPRO_CKERNEL_ABI 1

int repro_ckernel_abi(void) { return REPRO_CKERNEL_ABI; }

/* Bitset membership of a categorical code.  The code is the truncated
 * attribute value; negative, NaN, infinite and out-of-range values
 * (outside [0, 32 * count)) are non-members. */
static inline int cat_member(const uint32_t *bits, int64_t offset, int32_t count, float v)
{
    double x = (double)v;
    if (!(x >= 0.0 && x < 32.0 * (double)count))
        return 0;
    int64_t code = (int64_t)x;
    return (int)((bits[offset + (code >> 5)] >> (code & 31)) & 1u);
}

/* ------------------------------------------------------------------ */
/* Traversal                                                           */
/* ------------------------------------------------------------------ */
typedef struct {
    const int32_t *feature;      /* -1 at leaves */
    const float *threshold;
    const int32_t *child_true;   /* taken when x < threshold (flip resolved) */
    const int32_t *child_false;
    const uint8_t *default_true; /* NaN routing */
    const float *value;          /* leaf values */
    const int32_t *roots;
    const int64_t *group;        /* per-tree output column; NULL: column 0 */
    const int64_t *cat_offset;   /* -1 at numeric nodes; NULL: none */
    const int32_t *cat_count;
    const uint32_t *cat_bits;
    int64_t n_trees;
    int64_t n_groups;
} repro_forest;

void repro_traverse(const repro_forest *f, const float *X, int64_t n, int64_t stride,
                    double *out)
{
    const int64_t K = f->n_groups;
    for (int64_t i = 0; i < n; ++i) {
        const float *x = X + i * stride;
        double *o = out + i * K;
        for (int64_t g = 0; g < K; ++g)
            o[g] = 0.0;
        for (int64_t t = 0; t < f->n_trees; ++t) {
            int32_t node = f->roots[t];
            int32_t feat = f->feature[node];
            while (feat >= 0) {
                float v = x[feat];
                int go;
                if (v != v)
                    go = f->default_true[node];
                else if (f->cat_offset != NULL && f->cat_offset[node] >= 0)
                    go = cat_member(f->cat_bits, f->cat_offset[node], f->cat_count[node], v);
                else
                    go = v < f->threshold[node];
                node = go ? f->child_true[node] : f->child_false[node];
                feat = f->feature[node];
            }
            o[f->group != NULL ? f->group[t] : 0] += (double)f->value[node];
        }
    }
}

/* ------------------------------------------------------------------ */
/* Exact TreeSHAP                                                      */
/* ------------------------------------------------------------------ */
typedef struct {
    const int32_t *edge_feature;
    const float *edge_threshold;
    const uint8_t *edge_flip;
    const uint8_t *edge_default_left;
    const uint8_t *edge_expect_left;
    const int64_t *edge_cat_offset; /* -1 at numeric edges */
    const int32_t *edge_cat_count;
    const uint32_t *cat_bits;
    const int64_t *slot_edge_start; /* n_slots + 1 */
    const double *slot_zero;
    const int64_t *path_slot_start; /* n_paths + 1 */
    const double *path_value;
    const int64_t *scatter_slot;    /* slots in (unique depth, j, path) order */
    const int64_t *scatter_col;     /* phi column of each scattered slot */
    const double *ratio;            /* ratio[a * ratio_dim + b] == a / b */
    int64_t ratio_dim;
    int64_t n_slots;
    int64_t n_paths;
    int64_t n_cols;                 /* n_features * n_classes */
    int64_t max_depth;              /* longest path, in unique features */
} repro_paths;

/* Does the sample take edge e's direction? */
static inline int edge_satisfied(const repro_paths *p, int64_t e, const float *x)
{
    float v = x[p->edge_feature[e]];
    int go;
    if (v != v) {
        go = p->edge_default_left[e];
    } else {
        if (p->edge_cat_offset[e] >= 0)
            go = cat_member(p->cat_bits, p->edge_cat_offset[e], p->edge_cat_count[e], v);
        else
            go = v < p->edge_threshold[e];
        go ^= p->edge_flip[e];
    }
    return go == p->edge_expect_left[e];
}

/* Attributions of n samples into phi (n x n_cols, zeroed by the caller).
 * Returns 0, or -1 when the workspace cannot be allocated. */
int repro_shap(const repro_paths *p, const float *X, int64_t n, int64_t stride, double *phi)
{
    const int64_t R = p->ratio_dim;
    const double *q = p->ratio;
    double *one = malloc(sizeof(double) * (size_t)(p->n_slots + 1));
    double *contrib = malloc(sizeof(double) * (size_t)(p->n_slots + 1));
    double *m = malloc(sizeof(double) * (size_t)(p->max_depth + 1));
    if (one == NULL || contrib == NULL || m == NULL) {
        free(one);
        free(contrib);
        free(m);
        return -1;
    }
    for (int64_t s_i = 0; s_i < n; ++s_i) {
        const float *x = X + s_i * stride;
        double *row = phi + s_i * p->n_cols;

        /* A slot's one-fraction is the AND of its edges' satisfaction. */
        for (int64_t s = 0; s < p->n_slots; ++s) {
            int sat = 1;
            for (int64_t e = p->slot_edge_start[s]; e < p->slot_edge_start[s + 1]; ++e) {
                if (!edge_satisfied(p, e, x)) {
                    sat = 0;
                    break;
                }
            }
            one[s] = sat ? 1.0 : 0.0;
        }

        for (int64_t path = 0; path < p->n_paths; ++path) {
            const int64_t s0 = p->path_slot_start[path];
            const int64_t d = p->path_slot_start[path + 1] - s0;
            if (d == 0)
                continue; /* leaf-only paths contribute the base value only */
            const double *z = p->slot_zero + s0;
            const double *o = one + s0;

            /* EXTEND: m[i] weighs subsets of size i among the features
             * added so far. */
            m[0] = 1.0;
            for (int64_t i = 1; i <= d; ++i)
                m[i] = 0.0;
            for (int64_t k = 1; k <= d; ++k) {
                const double zk = z[k - 1];
                const double ok = o[k - 1];
                for (int64_t i = k - 1; i >= 0; --i) {
                    m[i + 1] += ok * m[i] * q[(i + 1) * R + (k + 1)];
                    m[i] *= zk * q[(k - i) * R + (k + 1)];
                }
            }

            /* UNWIND each feature j and sum the weights it leaves. */
            const double val = p->path_value[path];
            for (int64_t j = 0; j < d; ++j) {
                const double zj = z[j];
                const double oj = o[j];
                double total = 0.0;
                if (oj > 0.5) {
                    double next_one = m[d];
                    for (int64_t i = d - 1; i >= 0; --i) {
                        const double tmp = next_one * q[(d + 1) * R + (i + 1)];
                        total += tmp;
                        next_one = m[i] - tmp * zj * q[(d - i) * R + (d + 1)];
                    }
                } else {
                    for (int64_t i = d - 1; i >= 0; --i)
                        total += m[i] / (zj * q[(d - i) * R + (d + 1)]);
                }
                contrib[s0 + j] = (oj - zj) * val * total;
            }
        }

        for (int64_t r = 0; r < p->n_slots; ++r)
            row[p->scatter_col[r]] += contrib[p->scatter_slot[r]];
    }
    free(one);
    free(contrib);
    free(m);
    return 0;
}
