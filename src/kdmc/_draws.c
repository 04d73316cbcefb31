/* kdmc's draw arithmetic over caller buffers: the splitmix64 stream keys
 * and hash, the uniform maps and scipy.special's cephes ndtri and ndtr, bit
 * for bit, and the lockstep engine's per-round passes built on them.
 * So build with -ffp-contract=off and never -ffast-math: every operation
 * rounds once, as numpy and scipy round it. No state is kept, so threads
 * may share the calls. */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define PHI 0x9E3779B97F4A7C15ULL
#define EXPM2 0.13533528323661269189 /* e^-2; ndtri's central branch is (e^-2, 1 - e^-2] */
#define BATCH 256
#define BLOCK(n, lo) ((n) - (lo) < BATCH ? (int)((n) - (lo)) : BATCH) /* at lo */

static inline uint64_t mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline uint64_t key(uint64_t seed, uint64_t stream)
{
    return mix(seed ^ mix(stream + PHI));
}

/* the keys of streams lo + stream[i], or lo + i with no stream ids */
void stream_keys(uint64_t seed, uint64_t lo, const uint64_t *stream, uint64_t *out, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++)
        out[i] = key(seed, lo + (stream ? stream[i] : (uint64_t)i));
}

/* ((mix(key + (counter + 1) phi) >> 11) + offset) 2^-53, at element
 * stride cs of the counters: 1, or 0 for one counter for all. With no
 * keys, particle i's key is hashed here, from stream lo + i. */
void uniforms(const uint64_t *keys, uint64_t seed, uint64_t lo, const uint64_t *ctr, ptrdiff_t cs,
              double offset, double *out, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        uint64_t k = keys ? keys[i] : key(seed, lo + (uint64_t)i), c = cs ? ctr[i] : ctr[0];
        out[i] = ((double)(mix(k + (c + 1) * PHI) >> 11) + offset) * 0x1p-53;
    }
}

/* cephes' coefficients; a leading 1.0 is p1evl's implicit one (1.0 * x == x) */
static const double P0[] = {-5.99633501014107895267E1, 9.80010754185999661536E1,
    -5.66762857469070293439E1, 1.39312609387279679503E1, -1.23916583867381258016E0};
static const double Q0[] = {1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
    8.63602421390890590575E1, -2.25462687854119370527E2, 2.00260212380060660359E2,
    -8.20372256168333339912E1, 1.59056225126211695515E1, -1.18331621121330003142E0};
static const double P1[] = {
    4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
    4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4};
static const double Q1[] = {1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
    4.13172038254672030440E1, 1.50425385692907503408E1, 2.50464946208309415979E0,
    -1.42182922854787788574E-1, -3.80806407691578277194E-2, -9.33259480895457427372E-4};
static const double P2[] = {
    3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
    1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9};
static const double Q2[] = {1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
    1.37702099489081330271E0, 2.16236993594496635890E-1, 1.34204006088543189037E-2,
    3.28014464682127739104E-4, 2.89247864745380683936E-6, 6.79019408009981274425E-9};

static inline double polevl(double x, const double *c, int n)
{
    double a = c[0];
    for (int i = 1; i <= n; i++)
        a = a * x + c[i];
    return a;
}

/* in place, for n <= BATCH values u in [0, 1]. The tails first, flagged in
 * a vector pass and gathered into loops without branches: the libm calls,
 * each in a loop of its own, and the x >= 8 rational (y < e^-32) only when
 * the block holds such a tail. Their results have |x| > 1.1, so the central
 * pass, which keys on u, keeps them. */
static void ndtri_block(double *u, int n)
{
    int at[BATCH], m = 0, far = 0;
    _Bool tail[BATCH];
    double y0[BATCH], y[BATCH], lg[BATCH], x[BATCH], x1[BATCH];
    for (int i = 0; i < n; i++)
        tail[i] = (u[i] <= EXPM2) | (u[i] > 1.0 - EXPM2);
    for (int i = 0; i < n; i++) {
        at[m] = i;
        m += tail[i];
    }
    for (int k = 0; k < m; k++) {
        y0[k] = u[at[k]];
        y[k] = y0[k] > 1.0 - EXPM2 ? 1.0 - y0[k] : y0[k];
    }
    for (int k = 0; k < m; k++)
        lg[k] = log(y[k]);
    for (int k = 0; k < m; k++) {
        x[k] = sqrt(-2.0 * lg[k]);
        double z = 1.0 / x[k];
        x1[k] = z * polevl(z, P1, 8) / polevl(z, Q1, 8);
        far |= x[k] >= 8.0;
    }
    for (int k = 0; k < m; k++)
        lg[k] = log(x[k]);
    for (int k = 0; far && k < m; k++) {
        double z = 1.0 / x[k];
        x1[k] = x[k] < 8.0 ? x1[k] : z * polevl(z, P2, 8) / polevl(z, Q2, 8);
    }
    for (int k = 0; k < m; k++) {
        double v = x[k] - lg[k] / x[k] - x1[k], w = y0[k] > 1.0 - EXPM2 ? v : -v;
        u[at[k]] = y0[k] == 0.0 ? -INFINITY : y0[k] == 1.0 ? INFINITY : w;
    }
    for (int i = 0; i < n; i++) {
        double c = u[i] - 0.5, c2 = c * c;
        double xc = (c + c * (c2 * polevl(c2, P0, 4) / polevl(c2, Q0, 8))) * 2.50662827463100050242E0;
        u[i] = (u[i] > EXPM2) & (u[i] <= 1.0 - EXPM2) ? xc : u[i];
    }
}

void ndtri(double *u, ptrdiff_t n)
{
    for (ptrdiff_t lo = 0; lo < n; lo += BATCH)
        ndtri_block(u + lo, BLOCK(n, lo));
}

/* cephes ndtr's erf and erfc: T/U for |x| < 1, P/Q for erfc below 8, R/S above */
static const double T[] = {9.60497373987051638749E0, 9.00260197203842689217E1,
    2.23200534594684319226E3, 7.00332514112805075473E3, 5.55923013010394962768E4};
static const double U[] = {1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
    4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4};
static const double P[] = {2.46196981473530512524E-10, 5.64189564831068821977E-1,
    7.46321056442269912687E0, 4.86371970985681366614E1, 1.96520832956077098242E2,
    5.26445194995477358631E2, 9.34528527171957607540E2, 1.02755188689515710272E3,
    5.57535335369399327526E2};
static const double Q[] = {1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
    3.54937778887819891062E2, 9.75708501743205489753E2, 1.82390916687909736289E3,
    2.24633760818710981792E3, 1.65666309194161350182E3, 5.57535340817727675546E2};
static const double R[] = {5.64189583547755073984E-1, 1.27536670759978104416E0,
    5.01905042251180477414E0, 6.16021097993053585195E0, 7.40974269950448939160E0,
    2.97886665372100240670E0};
static const double S[] = {1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
    1.20489539808096656605E1, 1.70814450747565897222E1, 9.60896809063285878198E0,
    3.36907645100081516050E0};
#define SQRT1_2 7.07106781186547524401E-1
#define MAXLOG 7.09782712893383996843E2 /* log(DBL_MAX) */

static inline double erf_small(double x) /* |x| < 1 */
{
    double z = x * x;
    return x * polevl(z, T, 4) / polevl(z, U, 5);
}

static double erfc_pos(double x) /* x >= 1/sqrt(2) */
{
    if (x < 1.0)
        return 1.0 - erf_small(x);
    if (-x * x < -MAXLOG)
        return 0.0;
    double z = exp(-x * x);
    return x < 8.0 ? z * polevl(x, P, 8) / polevl(x, Q, 8) : z * polevl(x, R, 5) / polevl(x, S, 6);
}

/* the standard normal CDF, in place: Phi(a) = (1 + erf(a / sqrt 2)) / 2 */
void ndtr(double *a, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        double x = a[i] * SQRT1_2, z = fabs(x);
        double y = z < SQRT1_2 ? 0.5 + 0.5 * erf_small(x) : 0.5 * erfc_pos(z);
        a[i] = isnan(x) ? NAN : z >= SQRT1_2 && x > 0.0 ? 1.0 - y : y;
    }
}

/* the standard normals ndtri(u) of the uniforms on (0, 1) */
void normals(const uint64_t *keys, const uint64_t *ctr, double *out, ptrdiff_t n)
{
    for (ptrdiff_t lo = 0; lo < n; lo += BATCH) {
        uniforms(keys + lo, 0, 0, ctr + lo, 1, 0.5, out + lo, BLOCK(n, lo));
        ndtri_block(out + lo, BLOCK(n, lo));
    }
}

/* A round's flights, on dtau = log(u) of the uniforms on (0, 1]: dtau
 * becomes -log(u) scale and done flags the flights that reach their
 * remaining time rem. Returns the number done. Later rounds step the
 * counters ctr; round 0 (ctr NULL) only reads its inputs, x and v among
 * them, each at its element stride, 1 or 0 for one value for all, and
 * presets out_x to where each particle's flight would finish it,
 * (v / eps) rem + x. The strides select values, not addresses, so each
 * case vectorizes. */
ptrdiff_t flights(const double *rem, ptrdiff_t sr, double *dtau, uint64_t *ctr, _Bool *done,
                  const double *x, ptrdiff_t sx, const double *v, ptrdiff_t sv, double *out_x,
                  double scale, double eps, ptrdiff_t n)
{
    ptrdiff_t count = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        double r = sr ? rem[i] : rem[0];
        dtau[i] = -dtau[i] * scale;
        if (ctr)
            ctr[i] += 1;
        else
            out_x[i] = ((sv ? v[i] : v[0]) / eps) * r + (sx ? x[i] : x[0]);
        done[i] = dtau[i] >= r;
        count += done[i];
    }
    return count;
}

/* The series switch of the moment kernels; moments.A_SMALL reads it. */
const double A_SMALL = 1e-3;

/* The kernels of moments._kernel_table at a >= 0, from ea = e^-a, into k[0],
 * k[s], k[2s], k[3s]: e^-a - 1 + a, 1 - e^-a, 1 - 2a e^-a - e^-2a and
 * 2e^-a + a + a e^-a - 2, each from its series below A_SMALL, where the
 * closed forms cancel. */
static inline void kernel(double a, double ea, double *k, ptrdiff_t s)
{
    double e2a = ea * ea, a3 = a * a * a;
    _Bool small = a < A_SMALL;
    k[0] = small ? a * a * (1.0 / 2 + a * (-1.0 / 6 + a * (1.0 / 24 + a * (-1.0 / 120 + a / 720))))
                 : ea - 1.0 + a;
    k[s] = small ? a * (1.0 + a * (-1.0 / 2 + a * (1.0 / 6 + a * (-1.0 / 24 + a / 120)))) : 1.0 - ea;
    k[2 * s] = small ? a3 * (1.0 / 3 + a * (-1.0 / 3 + a * (11.0 / 60 - a * 13.0 / 180)))
                     : 1.0 - 2.0 * a * ea - e2a;
    k[3 * s] = small ? a3 * (1.0 / 6 + a * (-1.0 / 12 + a * (1.0 / 40 - a / 180)))
                     : 2.0 * ea + a + a * ea - 2.0;
}

/* the kernels k[c n + i] of a[i], c = 0..3, given ea[i] = e^-a[i] */
void kernels(const double *a, const double *ea, double *k, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++)
        kernel(a[i], ea[i], k + i, n);
}

/* A KD collision's constants, from moments._substep_constants */
struct kd { double dt, sigma, eps2, u, rate_scale, diffusive; };

/* A KD round's step bookkeeping after the flights dtau, before np.exp: a
 * flight spans j = dtau // dt more steps, at most left - 1; left drops by
 * 1 + j, rem becomes the remainder theta of the step it ends in, clamped to
 * [0, dt] against rounding at the grid edge (below dt the clamp changes
 * nothing), and nega = -a = -(sigma theta / eps^2). */
void kd_steps(const struct kd *kd, const double *dtau, int64_t *left, double *rem, double *nega,
              ptrdiff_t n)
{
    const struct kd c = *kd;
    for (ptrdiff_t i = 0; i < n; i++) {
        /* dtau // dt exactly: dtau >= 0, and the rounded quotient may reach the
         * next whole number; the sign of the fma is exact */
        int64_t q = (int64_t)(dtau[i] / c.dt);
        q -= fma((double)-q, c.dt, dtau[i]) < 0.0;
        int64_t j = q < left[i] - 1 ? q : left[i] - 1;
        double theta = c.dt - (dtau[i] - (double)j * c.dt);
        theta = theta > 0.0 ? theta : 0.0;
        theta = theta < c.dt ? theta : c.dt;
        rem[i] = theta;
        left[i] -= 1 + j;
        nega[i] = -(c.sigma * theta / c.eps2);
    }
}

enum { KINETIC, ORACLE, KD };

/* One collision of each particle after its flight dtau, per block: the
 * normal z at its counter, then KINETIC: x += (v / eps) dtau, rem -= dtau,
 * v = z sd + mean; ORACLE: x += ((z sd + mean) / eps) dtau, rem -= dtau;
 * KD, after kd_steps and np.exp: x += (v / eps) dtau, v = z sd + mean, then
 * the substep x += sqrt(var) z2 + m on the next counter's normal z2, with
 * the mean m and variance var of moments.conditioned_mean_var at theta =
 * rem, given v and ea = e^-a; rem = left dt, so a particle past its last
 * step has no time left and finishes at its next flight. The counters
 * step past what was drawn. */
void collide(int kind, const uint64_t *keys, uint64_t *ctr, const double *dtau, double *x,
             double *v, double *rem, const int64_t *left, const double *ea, const struct kd *kd,
             double eps, double sd, double mean, ptrdiff_t n)
{
    double z[BATCH];
    const struct kd c = kind == KD ? *kd : (struct kd){0};
    for (ptrdiff_t lo = 0; lo < n; lo += BATCH) {
        int m = BLOCK(n, lo);
        normals(keys + lo, ctr + lo, z, m);
        for (ptrdiff_t i = lo; i < lo + m; i++) {
            if (kind == ORACLE) {
                x[i] += ((z[i - lo] * sd + mean) / eps) * dtau[i];
            } else {
                x[i] += (v[i] / eps) * dtau[i];
                v[i] = z[i - lo] * sd + mean;
            }
            if (kind != KD)
                rem[i] -= dtau[i];
            ctr[i] += 1;
        }
        if (kind != KD)
            continue;
        normals(keys + lo, ctr + lo, z, m);
        for (ptrdiff_t i = lo; i < lo + m; i++) {
            double k[4], drift = v[i] / eps - c.u;
            kernel(c.sigma * rem[i] / c.eps2, ea[i], k, 1);
            double mi = c.u * rem[i] + drift * c.rate_scale * k[1];
            double var = c.diffusive * k[3] + drift * drift * c.rate_scale * c.rate_scale * k[2];
            x[i] += sqrt(var) * z[i - lo] + mi;
            rem[i] = (double)left[i] * c.dt;
            ctr[i] += 1;
        }
    }
}

/* Drops the particles flagged done from k columns of 8-byte values, in
 * place, and returns how many are left. The last kept particle moves into
 * each finished one's place below that count, so the work is O(done) and
 * the order is not kept; holes are found forward with memchr, movers
 * backward. Column k holds the output slots; fresh means the caller filled
 * it with 0, 1, 2, ..., the positions themselves, so a mover's slot is the
 * position it came from. */
ptrdiff_t compact(const _Bool *done, ptrdiff_t n, uint64_t *const *cols, int k, int fresh)
{
    for (ptrdiff_t i = 0;; i++) {
        const _Bool *hole = memchr(done + i, 1, (size_t)(n - i));
        if (!hole)
            return n;
        i = hole - done;
        while (n > i && done[n - 1])
            n--;
        if (n == i)
            return n;
        n--; /* the kept particle at n fills the hole at i */
        for (int c = 0; c <= k; c++)
            cols[c][i] = c == k && fresh ? (uint64_t)n : cols[c][n];
    }
}
