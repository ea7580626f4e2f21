/* Block stepper of run_scenario: log detector, IIR reference and slicer,
 * run across the quarter bits of one master plan, up to its end or its first
 * NACKed checkpoint.
 *
 * _kernels_py.BlockContext and _kernels_py.step_block state the contract and
 * the checkpoint rule;
 * step_block there is run_block here written in Python, statement for
 * statement: the same recurrence and the same floating-point operations in
 * the same order.  The one difference is quiet_run: in a run of one group
 * without noise or traces, the samples up to the next output change,
 * midpoint or quarter end step both streams with their references in
 * registers, by the same operations, where the Python stepper takes them
 * one by one through its per-sample body.  Build with -ffp-contract=off and
 * without -ffast-math so every double matches.  The struct layout mirrors
 * BlockContext._fields_.  The exported step_block runs run_block on a local
 * copy of the struct, as the Python one runs it on local variables.  The
 * slaves' drive states are numbered rows of one table (amps, pulled, used,
 * and without noise dets, each amplitude's detector value, which the
 * Python side computes with the same log10); the caller switches states
 * between calls by storing the row's index in drive.  A group in
 * receive mode (hears[g] == HEAR_BYTE) is clocking in a byte its slaves
 * only listen to: the kernel shifts the group's SDA output into rx_shift[g]
 * on each SCL rise and logs nothing until the first fall after the eighth
 * rise, which it logs as one EDGE_BYTE.  The one group in send mode
 * (SEND_BYTE) is clocking out tx_byte: its rises shift and count the same
 * way, its falls drive the byte's bits MSB first and then release SDA, and
 * the first fall after the ninth rise, the ACK slot's, is logged as one
 * EDGE_BYTE whose SDA bit is the ACK the ninth rise sampled.  A fall that
 * changes the sender's drive stores the other of its two drive states
 * (tx_drive) in drive after that sample, and the kernel takes the quarter
 * again under the new state.
 */
#include <math.h>
#include <stdint.h>

/* An event is 8 * group + 2 * kind + the group's SDA output at that sample. */
enum { EDGE_RISE, EDGE_FALL, EDGE_DATA, EDGE_BYTE };
/* the flag bit of a code whose quarter is a checkpoint: a NACK at its midpoint ends the run there */
enum { CHECKPOINT = 4 };
/* hears[g]: group g has no slave (nothing is logged), its data edges only reach a slave, every
 * edge does, it is clocking in a byte (logged whole as one EDGE_BYTE), or the kernel clocks out
 * its tx_byte (and logs the ACK as one EDGE_BYTE) */
enum { HEAR_NONE, HEAR_DATA, HEAR_ALL, HEAR_BYTE, SEND_BYTE };
/* what log_edge asks of run_block: Python must act after this sample; the drive state changed */
enum { ACT_STOP = 1, ACT_REENTER = 2 };

typedef struct {
    int64_t n_streams;   /* 2 * groups: the SCL stream of each group, then the SDA ones */
    int64_t spq;         /* samples per quarter */
    int64_t master;      /* the master's group */
    int64_t quarter;     /* current quarter, counted from the run's start */
    int64_t pos;         /* next sample within it */
    int64_t q_end;       /* the run stops before this quarter; a NACKed checkpoint moves it */
    int64_t drive;       /* the drive state the run is in: a row of amps, dets, pulled and used */
    int64_t n_events;    /* edges the last call logged */
    int64_t tx_byte;     /* the byte the group in send mode clocks out */
    int64_t tx_drive[2]; /* that group's drive states: SDA released, then pulled low */
    double floor, ref_in, ref_out, k, alpha, half_h;
    const uint8_t *code;  /* [n_quarters] master intents 2 * scl + sda, | CHECKPOINT at an ACK sample */
    const double *amps;   /* [drives][4][n_streams] amplitude row per code, of each drive state */
    const double *dets;   /* [drives][4][n_streams] the detector value of each amps entry, or NULL */
    const uint8_t *pulled; /* [drives] a node other than the master pulls SDA low */
    uint8_t *used;        /* [drives][4] codes that ran at least one sample */
    const double *noise;  /* [n_quarters * spq][n_streams] or NULL */
    const uint8_t *hears; /* [groups] which of the group's edges reach a slave, or its byte mode */
    uint8_t *rx_shift;    /* [groups] the SDA outputs at the open byte's rises so far */
    int64_t *rx_bits;     /* [groups] SCL rises since the byte opened, in receive and send mode */
    double *ref, *det;    /* [n_streams] */
    uint8_t *out;         /* [n_streams] */
    int64_t *events;      /* [n_streams] the edges the last call logged */
    uint8_t *obs;         /* [n_quarters] the master's outputs 2 * scl + sda at each midpoint */
    uint8_t *seen_low;    /* [2] each line's wired-AND level has been low */
    int64_t *bits_checked, *bit_errors;  /* [2] per stream */
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
    const int64_t code = c->code[c->quarter] & 3, row = (4 * c->drive + code) * c->n_streams;
    wire[0] = (uint8_t)(code >> 1);
    wire[1] = (uint8_t)((code & 1) && !c->pulled[c->drive]);
    for (int li = 0; li < 2; li++)
        if (!wire[li])
            c->seen_low[li] = 1;
    c->used[4 * c->drive + code] = 1;
    if (!c->noise)
        for (int64_t s = 0; s < c->n_streams; s++)
            c->det[s] = c->dets[row + s];
    return c->amps + row;
}

/* Step the one group's two streams of a noiseless, untraced run with their references in
 * registers, by the operations of step_stream, up to the first sample that would change an
 * output, the quarter's midpoint or its last sample.  That sample is left to run_block's
 * per-sample body, as is every sample of any other run.  Returns the samples stepped. */
static int64_t quiet_run(block_ctx *c, int64_t mid)
{
    const int64_t start = c->pos, end = start <= mid ? mid : c->spq - 1;
    const double d0 = c->det[0], d1 = c->det[1], alpha = c->alpha, h = c->half_h;
    const int o0 = c->out[0], o1 = c->out[1];
    double r0 = c->ref[0], r1 = c->ref[1];
    int64_t pos = start;
    for (; pos < end; pos++) {
        const double s0 = r0 + alpha * (d0 - r0), s1 = r1 + alpha * (d1 - r1);
        if (o0 ? d0 < s0 - h : d0 > s0 + h)
            break;
        if (o1 ? d1 < s1 - h : d1 > s1 + h)
            break;
        r0 = s0;
        r1 = s1;
    }
    c->ref[0] = r0;
    c->ref[1] = r1;
    c->pos = pos;
    return pos - start;
}

/* The master's observation, which at a checkpoint whose SDA output is 1 (a NACK) moves q_end to
 * the end of this quarter; bits and eye margins of each line once it has been low. */
static void midpoint(block_ctx *c, const uint8_t wire[2])
{
    const int64_t ng = c->n_streams / 2;
    c->obs[c->quarter] = (uint8_t)(2 * c->out[c->master] + c->out[ng + c->master]);
    if ((c->code[c->quarter] & CHECKPOINT) && c->out[ng + c->master])
        c->q_end = c->quarter + 1;
    for (int li = 0; li < 2; li++) {
        if (!c->seen_low[li])
            continue;
        c->bits_checked[li] += ng;
        for (int64_t s = li * ng; s < (li + 1) * ng; s++) {
            const double m = fabs(c->det[s] - c->ref[s]);
            if (c->out[s] != wire[li])
                c->bit_errors[li]++;
            if (m < c->eye[li])
                c->eye[li] = m;
        }
    }
}

/* Step stream s through one sample; 1 if its output changed. */
static int step_stream(block_ctx *c, const double *amp, int64_t row, int64_t s)
{
    const double d = c->noise ? detector(c, amp[s] + c->noise[row + s]) : c->det[s];
    double r = c->ref[s];
    r += c->alpha * (d - r);
    uint8_t o = c->out[s];
    if (d > r + c->half_h)
        o = 1;
    else if (d < r - c->half_h)
        o = 0;
    const int moved = o != c->out[s];
    c->ref[s] = r;
    c->det[s] = d;
    c->out[s] = o;
    if (c->trace_det) {
        c->trace_det[row + s] = d;
        c->trace_ref[row + s] = r;
        c->trace_out[row + s] = o;
    }
    return moved;
}

/* From the next sample on, the sender drives SDA as pull: switch the drive state if it changes. */
static int drive(block_ctx *c, int pull)
{
    if (c->tx_drive[pull] == c->drive)
        return 0;
    c->drive = c->tx_drive[pull];
    return ACT_REENTER;
}

/* Log group g's edge if a slave of g acts on it; returns the ACT_ flags.  In receive and send
 * mode a rise shifts in the SDA output; a fall is logged only once eight rises (receive) or
 * nine (send) are in, and before that a sender's fall drives its next bit. */
static int log_edge(block_ctx *c, int64_t g, int moved)
{
    const int64_t ng = c->n_streams / 2;
    int kind, sda = c->out[ng + g];
    if (moved & 1) {
        if (c->hears[g] >= HEAR_BYTE) {
            const int64_t rises = c->rx_bits[g];
            if (c->out[g]) {
                c->rx_shift[g] = (uint8_t)(c->rx_shift[g] << 1 | sda);
                c->rx_bits[g]++;
                return 0;
            }
            if (c->hears[g] == SEND_BYTE) {
                if (rises < 9)
                    return drive(c, rises < 8 && !(c->tx_byte >> (7 - rises) & 1));
                sda = c->rx_shift[g] & 1;
            } else if (rises < 8) {
                return 0;
            }
            kind = EDGE_BYTE;
        } else if (c->hears[g] == HEAR_ALL) {
            kind = c->out[g] ? EDGE_RISE : EDGE_FALL;
        } else {
            return 0;
        }
    } else if (c->out[g] && c->hears[g] != HEAR_NONE) {
        kind = EDGE_DATA;
    } else {
        return 0;
    }
    c->events[c->n_events++] = 8 * g + 2 * kind + sda;
    return kind != EDGE_RISE ? ACT_STOP : 0;
}

static int64_t run_block(block_ctx *c)
{
    const int64_t ns = c->n_streams, ng = ns / 2, mid = c->spq / 2;
    const int quiet = ng == 1 && !c->noise && !c->trace_det;
    const double *amp;
    uint8_t wire[2];
    int64_t n = 0;
    c->n_events = 0;
    if (c->quarter >= c->q_end)
        return 0;
    amp = enter_quarter(c, wire);
    for (;;) {
        if (quiet)
            n += quiet_run(c, mid);
        const int64_t isample = c->quarter * c->spq + c->pos;
        const int64_t row = isample * ns;
        int act = 0;
        for (int64_t g = 0; g < ng; g++) {
            int moved = step_stream(c, amp, row, g);
            moved |= step_stream(c, amp, row, ng + g) << 1;
            if (moved)
                act |= log_edge(c, g, moved);
        }
        if (c->trace_wire) {
            c->trace_wire[2 * isample] = wire[0];
            c->trace_wire[2 * isample + 1] = wire[1];
        }
        n++;
        if (c->pos == mid)
            midpoint(c, wire);
        if (++c->pos == c->spq) {
            c->pos = 0;
            c->quarter++;
        }
        if (act & ACT_STOP)
            return n;
        /* a new quarter, or the same one under the sender's new drive state */
        if (c->pos == 0 || act) {
            if (c->quarter == c->q_end)
                return n;
            amp = enter_quarter(c, wire);
        }
    }
}

/* run_block on a local copy of *ctx: a store through one of its uint8_t or
 * double pointers may alias a field of *ctx, but not of the copy, so the
 * loop need not reload the fields after every store.  The loop changes no
 * field but the position, q_end, the log count and the drive state. */
int64_t step_block(block_ctx *ctx)
{
    block_ctx c = *ctx;
    const int64_t n = run_block(&c);
    ctx->quarter = c.quarter;
    ctx->pos = c.pos;
    ctx->q_end = c.q_end;
    ctx->n_events = c.n_events;
    ctx->drive = c.drive;
    return n;
}
