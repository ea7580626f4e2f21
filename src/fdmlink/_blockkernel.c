/* Block stepper of run_scenario: log detector, IIR reference and slicer,
 * run across the quarter bits of one master segment.
 *
 * _kernels_py.step_block documents the contract and is this loop written
 * in Python, statement for statement: the same recurrence and the same
 * floating-point operations in the same order.  Build with
 * -ffp-contract=off and without -ffast-math so every double matches.
 * The kernel owns the position (quarter, pos).  At the start of a quarter,
 * and on entry, it takes that quarter's intent code, its amplitude row and
 * its wired-AND levels; without noise the input is then constant until
 * the next quarter, so each stream's detector value is computed once into
 * det[].  At each quarter midpoint it records the master's observation
 * and counts bits and eye margins.  It returns after the first sample
 * where any output changes (event = 1) or at the end of the segment.
 * The struct layout mirrors _kernels_py.BlockContext._fields_.
 */
#include <math.h>
#include <stdint.h>

typedef struct {
    int64_t n_streams;   /* 2 * groups: the SCL stream of each group, then the SDA ones */
    int64_t spq;         /* samples per quarter */
    int64_t mid;         /* midpoint sample within a quarter */
    int64_t fan_out;     /* nodes each stream stands for */
    int64_t master;      /* the master's group */
    int64_t started;     /* 0 until the first sample has seeded every reference */
    int64_t quarter;     /* current quarter, counted from the run's start */
    int64_t pos;         /* next sample within it */
    int64_t q_end;       /* the segment ends before this quarter */
    int64_t sda_pulled;  /* a node other than the master pulls SDA low */
    int64_t event;       /* 1 if the last call ended on an output change */
    double floor, ref_in, ref_out, k, alpha, half_h;
    const uint8_t *code;  /* [n_quarters] master intents 2 * scl + sda */
    const double *amp;    /* [4][n_streams] amplitude row per code */
    const double *noise;  /* [n_quarters * spq][n_streams] or NULL */
    double *ref, *det;    /* [n_streams] */
    uint8_t *out;         /* [n_streams] */
    uint8_t *obs;         /* [n_quarters][2] the master's (scl, sda) at each midpoint */
    uint8_t *used;        /* [4] codes that ran at least one sample */
    uint8_t *seen_low;    /* [2] each line's wired-AND level has been low */
    int64_t *bits_checked, *bit_errors;  /* [2] */
    double *eye;                         /* [2] least |det - ref| at a counted midpoint */
    double *trace_det, *trace_ref;       /* [n_quarters * spq][n_streams] or NULL */
    uint8_t *trace_out;                  /* [n_quarters * spq][n_streams] or NULL */
    uint8_t *trace_wire;                 /* [n_quarters * spq][2] or NULL */
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

/* Take the current quarter's code: its row, its wire levels, and det[] without noise. */
static const double *enter_quarter(block_ctx *c, uint8_t wire[2])
{
    const int64_t code = c->code[c->quarter];
    const double *amp = c->amp + code * c->n_streams;
    wire[0] = (uint8_t)(code >> 1);
    wire[1] = (uint8_t)((code & 1) && !c->sda_pulled);
    for (int li = 0; li < 2; li++)
        if (!wire[li])
            c->seen_low[li] = 1;
    c->used[code] = 1;
    if (!c->noise)
        for (int64_t s = 0; s < c->n_streams; s++)
            c->det[s] = detector(c, amp[s]);
    return amp;
}

/* The master's observation; bits and eye margins of each line once it has been low. */
static void midpoint(block_ctx *c, const uint8_t wire[2])
{
    const int64_t ng = c->n_streams / 2;
    c->obs[2 * c->quarter] = c->out[c->master];
    c->obs[2 * c->quarter + 1] = c->out[ng + c->master];
    for (int li = 0; li < 2; li++) {
        if (!c->seen_low[li])
            continue;
        c->bits_checked[li] += c->fan_out * ng;
        for (int64_t s = li * ng; s < (li + 1) * ng; s++) {
            const double m = fabs(c->det[s] - c->ref[s]);
            if (c->out[s] != wire[li])
                c->bit_errors[li] += c->fan_out;
            if (m < c->eye[li])
                c->eye[li] = m;
        }
    }
}

int64_t step_block(block_ctx *c)
{
    const int64_t ns = c->n_streams;
    const double *amp;
    uint8_t wire[2];
    int64_t n = 0;
    c->event = 0;
    if (c->quarter >= c->q_end)
        return 0;
    amp = enter_quarter(c, wire);
    for (;;) {
        const int64_t isample = c->quarter * c->spq + c->pos;
        const int64_t row = isample * ns;
        int changed = 0;
        for (int64_t s = 0; s < ns; s++) {
            const double d = c->noise ? detector(c, amp[s] + c->noise[row + s]) : c->det[s];
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
        if (c->trace_wire) {
            c->trace_wire[2 * isample] = wire[0];
            c->trace_wire[2 * isample + 1] = wire[1];
        }
        c->started = 1;
        n++;
        if (c->pos == c->mid)
            midpoint(c, wire);
        if (++c->pos == c->spq) {
            c->pos = 0;
            c->quarter++;
        }
        if (changed) {
            c->event = 1;
            return n;
        }
        if (c->pos == 0) {
            if (c->quarter == c->q_end)
                return n;
            amp = enter_quarter(c, wire);
        }
    }
}
