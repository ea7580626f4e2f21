/* Block stepper of run_scenario: log detector, IIR reference and slicer.
 *
 * _kernels_py.step_block documents the contract and is this loop written
 * in Python, statement for statement: the same recurrence and the same
 * floating-point operations in the same order.  Build with
 * -ffp-contract=off and without -ffast-math so every double matches.
 * Without noise the input is constant over the block, so each stream's
 * detector value is computed once into det[] before the loop; with noise
 * it is computed every sample.  An empty block leaves det[] as it was.
 * The struct layout mirrors _kernels_py.BlockContext._fields_.
 */
#include <math.h>
#include <stdint.h>

typedef struct {
    int64_t n_streams;
    int64_t isample;  /* absolute index of the block's first sample */
    int64_t start;    /* its index within the quarter */
    int64_t end;      /* samples per quarter */
    int64_t mid;      /* midpoint index within the quarter */
    int64_t started;  /* 0 until the first sample has seeded every reference */
    double floor, ref_in, ref_out, k, alpha, half_h;
    const double *amp;    /* [n_streams] */
    const double *noise;  /* [n_alloc][n_streams] or NULL */
    double *ref, *det;    /* [n_streams] */
    uint8_t *out;         /* [n_streams] */
    uint8_t *mid_out;     /* [n_streams] */
    double *mid_margin;   /* [n_streams] */
    double *trace_det, *trace_ref;  /* [n_alloc][n_streams] or NULL */
    uint8_t *trace_out;             /* [n_alloc][n_streams] or NULL */
} block_ctx;

int64_t block_ctx_size(void)
{
    return (int64_t)sizeof(block_ctx);
}

static double detector(const block_ctx *c, double x)
{
    if (x < c->floor)
        x = c->floor;
    return c->ref_out + c->k * log10(x / c->ref_in);
}

int64_t step_block(block_ctx *c)
{
    const int64_t ns = c->n_streams;
    int64_t j;
    if (!c->noise && c->start < c->end)
        for (int64_t s = 0; s < ns; s++)
            c->det[s] = detector(c, c->amp[s]);
    for (j = c->start; j < c->end; j++) {
        const int64_t row = (c->isample + (j - c->start)) * ns;
        int changed = 0;
        for (int64_t s = 0; s < ns; s++) {
            const double d = c->noise ? detector(c, c->amp[s] + c->noise[row + s]) : c->det[s];
            const double r0 = c->started ? c->ref[s] : d;
            const double r = r0 + c->alpha * (d - r0);
            uint8_t o = c->out[s];
            if (d > r + c->half_h)
                o = 1;
            else if (d < r - c->half_h)
                o = 0;
            changed |= o != c->out[s];
            c->ref[s] = r;
            c->det[s] = d;
            c->out[s] = o;
            if (c->trace_det) {
                c->trace_det[row + s] = d;
                c->trace_ref[row + s] = r;
                c->trace_out[row + s] = o;
            }
        }
        c->started = 1;
        if (j == c->mid) {
            for (int64_t s = 0; s < ns; s++) {
                c->mid_out[s] = c->out[s];
                c->mid_margin[s] = fabs(c->det[s] - c->ref[s]);
            }
        }
        if (changed)
            return j - c->start + 1;
    }
    return j - c->start;
}
