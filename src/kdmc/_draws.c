/* kdmc's draw arithmetic over caller buffers: the splitmix64 stream keys and
 * hash, the uniform maps and scipy.special's cephes ndtri, on a port of glibc's
 * log, and ndtr, bit for bit, and the random walk and the lockstep engine built
 * on them, whose log and exp are numpy's own loops. So build with
 * -ffp-contract=off and never -ffast-math: every operation, an fma() too,
 * rounds once, as numpy, scipy and glibc round it. No state is kept, so
 * threads may share the calls. */
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

/* glibc's log as __log_fma, its build for x86-64 CPUs with FMA that scipy's ndtri
 * calls, computes it: each fma() is one that build contracts. Its __log_data: ln2 =
 * hi + lo, the polynomial A, 128 pairs {1/c, log c}. From Arm's optimized-routines
 * (math/log.c, log_data.c), (c) 2018 Arm Limited, MIT OR Apache-2.0 WITH LLVM-exception. */
#define OFF 0x3fe6000000000000ULL
static const double LN2HI = 0x1.62e42fefa3800p-1, LN2LO = 0x1.ef35793c76730p-45;
static const double A[] = {-0x1.0000000000001p-1, 0x1.555555551305bp-2, -0x1.fffffffeb4590p-3,
    0x1.999b324f10111p-3, -0x1.55575e506c89fp-3};
static const double LOGT[256] = {
    0x1.734f0c3e0de9fp+0, -0x1.7cc7f79e69000p-2, 0x1.713786a2ce91fp+0, -0x1.76feec20d0000p-2,
    0x1.6f26008fab5a0p+0, -0x1.713e31351e000p-2, 0x1.6d1a61f138c7dp+0, -0x1.6b85b38287800p-2,
    0x1.6b1490bc5b4d1p+0, -0x1.65d5590807800p-2, 0x1.69147332f0cbap+0, -0x1.602d076180000p-2,
    0x1.6719f18224223p+0, -0x1.5a8ca86909000p-2, 0x1.6524f99a51ed9p+0, -0x1.54f4356035000p-2,
    0x1.63356aa8f24c4p+0, -0x1.4f637c36b4000p-2, 0x1.614b36b9ddc14p+0, -0x1.49da7fda85000p-2,
    0x1.5f66452c65c4cp+0, -0x1.445923989a800p-2, 0x1.5d867b5912c4fp+0, -0x1.3edf439b0b800p-2,
    0x1.5babccb5b90dep+0, -0x1.396ce448f7000p-2, 0x1.59d61f2d91a78p+0, -0x1.3401e17bda000p-2,
    0x1.5805612465687p+0, -0x1.2e9e2ef468000p-2, 0x1.56397cee76bd3p+0, -0x1.2941b3830e000p-2,
    0x1.54725e2a77f93p+0, -0x1.23ec58cda8800p-2, 0x1.52aff42064583p+0, -0x1.1e9e129279000p-2,
    0x1.50f22dbb2bddfp+0, -0x1.1956d2b48f800p-2, 0x1.4f38f4734ded7p+0, -0x1.141679ab9f800p-2,
    0x1.4d843cfde2840p+0, -0x1.0edd094ef9800p-2, 0x1.4bd3ec078a3c8p+0, -0x1.09aa518db1000p-2,
    0x1.4a27fc3e0258ap+0, -0x1.047e65263b800p-2, 0x1.4880524d48434p+0, -0x1.feb224586f000p-3,
    0x1.46dce1b192d0bp+0, -0x1.f474a7517b000p-3, 0x1.453d9d3391854p+0, -0x1.ea4443d103000p-3,
    0x1.43a2744b4845ap+0, -0x1.e020d44e9b000p-3, 0x1.420b54115f8fbp+0, -0x1.d60a22977f000p-3,
    0x1.40782da3ef4b1p+0, -0x1.cc00104959000p-3, 0x1.3ee8f5d57fe8fp+0, -0x1.c202956891000p-3,
    0x1.3d5d9a00b4ce9p+0, -0x1.b81178d811000p-3, 0x1.3bd60c010c12bp+0, -0x1.ae2c9ccd3d000p-3,
    0x1.3a5242b75dab8p+0, -0x1.a45402e129000p-3, 0x1.38d22cd9fd002p+0, -0x1.9a877681df000p-3,
    0x1.3755bc5847a1cp+0, -0x1.90c6d69483000p-3, 0x1.35dce49ad36e2p+0, -0x1.87120a645c000p-3,
    0x1.34679984dd440p+0, -0x1.7d68fb4143000p-3, 0x1.32f5cceffcb24p+0, -0x1.73cb83c627000p-3,
    0x1.3187775a10d49p+0, -0x1.6a39a9b376000p-3, 0x1.301c8373e3990p+0, -0x1.60b3154b7a000p-3,
    0x1.2eb4ebb95f841p+0, -0x1.5737d76243000p-3, 0x1.2d50a0219a9d1p+0, -0x1.4dc7b8fc23000p-3,
    0x1.2bef9a8b7fd2ap+0, -0x1.4462c51d20000p-3, 0x1.2a91c7a0c1babp+0, -0x1.3b08abc830000p-3,
    0x1.293726014b530p+0, -0x1.31b996b490000p-3, 0x1.27dfa5757a1f5p+0, -0x1.2875490a44000p-3,
    0x1.268b39b1d3bbfp+0, -0x1.1f3b9f879a000p-3, 0x1.2539d838ff5bdp+0, -0x1.160c8252ca000p-3,
    0x1.23eb7aac9083bp+0, -0x1.0ce7f57f72000p-3, 0x1.22a012ba940b6p+0, -0x1.03cdc49fea000p-3,
    0x1.2157996cc4132p+0, -0x1.f57bdbc4b8000p-4, 0x1.201201dd2fc9bp+0, -0x1.e370896404000p-4,
    0x1.1ecf4494d480bp+0, -0x1.d17983ef94000p-4, 0x1.1d8f5528f6569p+0, -0x1.bf9674ed8a000p-4,
    0x1.1c52311577e7cp+0, -0x1.adc79202f6000p-4, 0x1.1b17c74cb26e9p+0, -0x1.9c0c3e7288000p-4,
    0x1.19e010c2c1ab6p+0, -0x1.8a646b372c000p-4, 0x1.18ab07bb670bdp+0, -0x1.78d01b3ac0000p-4,
    0x1.1778a25efbcb6p+0, -0x1.674f145380000p-4, 0x1.1648d354c31dap+0, -0x1.55e0e6d878000p-4,
    0x1.151b990275fddp+0, -0x1.4485cdea1e000p-4, 0x1.13f0ea432d24cp+0, -0x1.333d94d6aa000p-4,
    0x1.12c8b7210f9dap+0, -0x1.22079f8c56000p-4, 0x1.11a3028ecb531p+0, -0x1.10e4698622000p-4,
    0x1.107fbda8434afp+0, -0x1.ffa6c6ad20000p-5, 0x1.0f5ee0f4e6bb3p+0, -0x1.dda8d4a774000p-5,
    0x1.0e4065d2a9fcep+0, -0x1.bbcece4850000p-5, 0x1.0d244632ca521p+0, -0x1.9a1894012c000p-5,
    0x1.0c0a77ce2981ap+0, -0x1.788583302c000p-5, 0x1.0af2f83c636d1p+0, -0x1.5715e67d68000p-5,
    0x1.09ddb98a01339p+0, -0x1.35c8a49658000p-5, 0x1.08cabaf52e7dfp+0, -0x1.149e364154000p-5,
    0x1.07b9f2f4e28fbp+0, -0x1.e72c082eb8000p-6, 0x1.06ab58c358f19p+0, -0x1.a55f152528000p-6,
    0x1.059eea5ecf92cp+0, -0x1.63d62cf818000p-6, 0x1.04949cdd12c90p+0, -0x1.228fb8caa0000p-6,
    0x1.038c6c6f0ada9p+0, -0x1.c317b20f90000p-7, 0x1.02865137932a9p+0, -0x1.419355daa0000p-7,
    0x1.0182427ea7348p+0, -0x1.81203c2ec0000p-8, 0x1.008040614b195p+0, -0x1.0040979240000p-9,
    0x1.fe01ff726fa1ap-1, 0x1.feff384900000p-9, 0x1.fa11cc261ea74p-1, 0x1.7dc41353d0000p-7,
    0x1.f6310b081992ep-1, 0x1.3cea3c4c28000p-6, 0x1.f25f63ceeadcdp-1, 0x1.b9fc114890000p-6,
    0x1.ee9c8039113e7p-1, 0x1.1b0d8ce110000p-5, 0x1.eae8078cbb1abp-1, 0x1.58a5bd001c000p-5,
    0x1.e741aa29d0c9bp-1, 0x1.95c8340d88000p-5, 0x1.e3a91830a99b5p-1, 0x1.d276aef578000p-5,
    0x1.e01e009609a56p-1, 0x1.07598e598c000p-4, 0x1.dca01e577bb98p-1, 0x1.253f5e30d2000p-4,
    0x1.d92f20b7c9103p-1, 0x1.42edd8b380000p-4, 0x1.d5cac66fb5ccep-1, 0x1.606598757c000p-4,
    0x1.d272caa5ede9dp-1, 0x1.7da76356a0000p-4, 0x1.cf26e3e6b2ccdp-1, 0x1.9ab434e1c6000p-4,
    0x1.cbe6da2a77902p-1, 0x1.b78c7bb0d6000p-4, 0x1.c8b266d37086dp-1, 0x1.d431332e72000p-4,
    0x1.c5894bd5d5804p-1, 0x1.f0a3171de6000p-4, 0x1.c26b533bb9f8cp-1, 0x1.067152b914000p-3,
    0x1.bf583eeece73fp-1, 0x1.147858292b000p-3, 0x1.bc4fd75db96c1p-1, 0x1.2266ecdca3000p-3,
    0x1.b951e0c864a28p-1, 0x1.303d7a6c55000p-3, 0x1.b65e2c5ef3e2cp-1, 0x1.3dfc33c331000p-3,
    0x1.b374867c9888bp-1, 0x1.4ba366b7a8000p-3, 0x1.b094b211d304ap-1, 0x1.5933928d1f000p-3,
    0x1.adbe885f2ef7ep-1, 0x1.66acd2418f000p-3, 0x1.aaf1d31603da2p-1, 0x1.740f8ec669000p-3,
    0x1.a82e63fd358a7p-1, 0x1.815c0f51af000p-3, 0x1.a5740ef09738bp-1, 0x1.8e92954f68000p-3,
    0x1.a2c2a90ab4b27p-1, 0x1.9bb3602f84000p-3, 0x1.a01a01393f2d1p-1, 0x1.a8bed1c2c0000p-3,
    0x1.9d79f24db3c1bp-1, 0x1.b5b515c01d000p-3, 0x1.9ae2505c7b190p-1, 0x1.c2967ccbcc000p-3,
    0x1.9852ef297ce2fp-1, 0x1.cf635d5486000p-3, 0x1.95cbaeea44b75p-1, 0x1.dc1bd3446c000p-3,
    0x1.934c69de74838p-1, 0x1.e8c01b8cfe000p-3, 0x1.90d4f2f6752e6p-1, 0x1.f5509c0179000p-3,
    0x1.8e6528effd79dp-1, 0x1.00e6c121fb800p-2, 0x1.8bfce9fcc007cp-1, 0x1.071b80e93d000p-2,
    0x1.899c0dabec30ep-1, 0x1.0d46b9e867000p-2, 0x1.87427aa2317fbp-1, 0x1.13687334bd000p-2,
    0x1.84f00acb39a08p-1, 0x1.1980d67234800p-2, 0x1.82a49e8653e55p-1, 0x1.1f8ffe0cc8000p-2,
    0x1.8060195f40260p-1, 0x1.2595fd7636800p-2, 0x1.7e22563e0a329p-1, 0x1.2b9300914a800p-2,
    0x1.7beb377dcb5adp-1, 0x1.3187210436000p-2, 0x1.79baa679725c2p-1, 0x1.377266dec1800p-2,
    0x1.77907f2170657p-1, 0x1.3d54ffbaf3000p-2, 0x1.756cadbd6130cp-1, 0x1.432eee32fe000p-2};

/* lg[k] = log(x[k]), k < m: log's general path, then libm's log on the block if an x
 * is 0, negative, subnormal, inf or NaN. ndtri's y <= e^-2 and x >= 2 never come near
 * 1, log's other path. (A const x makes gcc 12 warn that a block of m = 0 reads it.) */
static void log_block(double *x, double *lg, int m)
{
    int off = 0;
    for (int k = 0; k < m; k++) {
        union { double f; uint64_t i; } z = {x[k]}; /* then x 2^-k, a double near 1 */
        uint64_t tmp = z.i - OFF, i = (tmp >> 45) % 128;
        off |= (z.i >> 52) - 1 >= 0x7fe;
        z.i -= tmp & 0xfffULL << 52;
        double kd = (double)((int64_t)tmp >> 52), invc = LOGT[2 * i], logc = LOGT[2 * i + 1];
        double w = fma(kd, LN2HI, logc), r = fma(z.f, invc, -1.0), hi = w + r;
        double lo = fma(kd, LN2LO, (w - hi) + r), r2 = r * r;
        double p = fma(fma(r, A[4], A[3]), r2, fma(r, A[2], A[1]));
        lg[k] = fma(r * r2, p, fma(r2, A[0], lo)) + hi;
    }
    for (int k = 0; off && k < m; k++)
        lg[k] = log(x[k]);
}

/* in place, for n <= BATCH values u in [0, 1]. The tails first, flagged in
 * a vector pass and gathered into loops without branches: the two logs,
 * each in a pass of its own, and the x >= 8 rational (y < e^-32) only when
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
    log_block(y, lg, m);
    for (int k = 0; k < m; k++) {
        x[k] = sqrt(-2.0 * lg[k]);
        double z = 1.0 / x[k];
        x1[k] = z * polevl(z, P1, 8) / polevl(z, Q1, 8);
        far |= x[k] >= 8.0;
    }
    log_block(x, lg, m);
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

/* with scipy's NaNs, which no lattice uniform meets: its NAN for u outside
 * [0, 1], and a NaN u negated, as cephes returns it */
void ndtri(double *u, ptrdiff_t n)
{
    for (ptrdiff_t lo = 0; lo < n; lo += BATCH) {
        double u0[BATCH];
        int m = BLOCK(n, lo);
        memcpy(u0, u + lo, (size_t)m * sizeof *u);
        ndtri_block(u + lo, m);
        for (int i = 0; i < m; i++)
            u[lo + i] = u0[i] != u0[i] ? -u0[i] : u0[i] < 0.0 || u0[i] > 1.0 ? NAN : u[lo + i];
    }
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

/* the standard normals ndtri(u) of the uniforms on (0, 1), keyed as uniforms' are */
void normals(const uint64_t *keys, uint64_t seed, uint64_t lo, const uint64_t *ctr, ptrdiff_t cs,
             double *out, ptrdiff_t n)
{
    for (ptrdiff_t b = 0; b < n; b += BATCH) {
        uniforms(keys ? keys + b : NULL, seed, lo + (uint64_t)b, ctr + (cs ? b : 0), cs, 0.5,
                 out + b, BLOCK(n, b));
        ndtri_block(out + b, BLOCK(n, b));
    }
}

/* dst[k] = src[s k], k < m, of 8-byte values at element stride s: 1, or 0 for one for all */
static void take(void *dst, const void *src, ptrdiff_t s, int m)
{
    if (s)
        memcpy(dst, src, (size_t)m * 8);
    for (int k = 0; !s && k < m; k++)
        memcpy((char *)dst + 8 * k, src, 8);
}

/* n_steps random-walk steps of x, in place: in step s, x += drift, then
 * x += scale z, z the normal of stream lo + i at counter ctr + s, ctr at
 * element stride cs, 1 or 0. Each block takes all its steps in one go. */
void walk(uint64_t seed, uint64_t lo, const uint64_t *ctr, ptrdiff_t cs, double *x, double drift,
          double scale, int64_t n_steps, ptrdiff_t n)
{
    uint64_t keys[BATCH], c[BATCH];
    double z[BATCH];
    for (ptrdiff_t b = 0; b < n; b += BATCH, x += BATCH) {
        int m = BLOCK(n, b);
        stream_keys(seed, lo + (uint64_t)b, NULL, keys, m);
        take(c, ctr + cs * b, cs, m);
        for (int64_t s = 0; s < n_steps; s++) {
            normals(keys, 0, 0, c, 1, z, m);
            for (int i = 0; i < m; i++) {
                x[i] = (x[i] + drift) + z[i] * scale;
                c[i] += 1;
            }
        }
    }
}

/* A round's flights, on dtau = log(u) of the uniforms on (0, 1]: dtau
 * becomes -log(u) scale, the counters ctr step past the draw, and done flags
 * the flights that reach their remaining time rem. Returns the number done. */
ptrdiff_t flights(const double *rem, double *dtau, uint64_t *ctr, _Bool *done, double scale,
                  ptrdiff_t n)
{
    ptrdiff_t count = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        dtau[i] = -dtau[i] * scale;
        ctr[i] += 1;
        done[i] = dtau[i] >= rem[i];
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
        normals(keys + lo, 0, 0, ctr + lo, 1, z, m);
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
        normals(keys + lo, 0, 0, ctr + lo, 1, z, m);
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
 * backward. The engine's output slots are one of the columns, so each kept
 * particle carries the slot it came from. */
ptrdiff_t compact(const _Bool *done, ptrdiff_t n, void *const *cols, int k)
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
        for (int c = 0; c < k; c++)
            memcpy((char *)cols[c] + 8 * i, (char *)cols[c] + 8 * n, 8);
    }
}

/* numpy's own float64 inner loop of a unary ufunc, its PyUFuncGenericFunction,
 * and the data numpy passes it; kdmc.core takes np.log's and np.exp's */
typedef void (*ufunc_loop)(char **args, const ptrdiff_t *n, const ptrdiff_t *steps, void *data);
struct loop {
    ufunc_loop fn;
    void *data;
};

/* a[i] = f(a[i]), i < n, in place, as numpy calls f on a contiguous array */
void numpy_loop(const struct loop *f, double *a, ptrdiff_t n)
{
    char *args[2] = {(char *)a, (char *)a};
    const ptrdiff_t steps[2] = {(ptrdiff_t)sizeof *a, (ptrdiff_t)sizeof *a};
    f->fn(args, &n, steps, f->data);
}

#define EB 256 /* particles per engine block: its columns stay in cache through all its rounds */

/* The lockstep engine of core.lockstep: runs particles i < n, from streams
 * lo + i under seed, to the end in blocks of EB, each through all its rounds
 * on columns of its own, and returns the number of collisions. The inputs
 * are read at element strides s.., 1 or 0 for one value for all; a NULL
 * record is not kept. loops[0] is numpy's log, loops[1] its exp. */
int64_t lockstep(int kind, uint64_t seed, uint64_t lo, const struct loop *loops,
                 const struct kd *kd, const uint64_t *ctr, ptrdiff_t sc, const double *rem,
                 ptrdiff_t sr, const double *x, ptrdiff_t sx, const double *v, ptrdiff_t sv,
                 const int64_t *left, ptrdiff_t sl, double *out_x, double *out_v,
                 int64_t *out_coll, double *out_first, double *out_last, double scale, double eps,
                 double sd, double mean, ptrdiff_t n)
{
    /* the particles still running, with their slots in the chunk, by column */
    uint64_t keys[EB], c[EB];
    double dtau[EB], xs[EB], vs[EB], rs[EB], first[EB], ea[EB];
    int64_t slot[EB], steps[EB], collisions = 0;
    _Bool done[EB];
    void *const cols[] = {keys, c, dtau, xs, vs, rs, first, slot, steps};
    for (ptrdiff_t b = 0; b < n; b += EB) {
        int m = n - b < EB ? (int)(n - b) : EB;
        stream_keys(seed, lo + (uint64_t)b, NULL, keys, m);
        take(c, ctr + sc * b, sc, m);
        take(rs, rem + sr * b, sr, m);
        take(xs, x + sx * b, sx, m);
        take(vs, v + sv * b, sv, m);
        if (kind == KD)
            take(steps, left + sl * b, sl, m);
        for (int k = 0; k < m; k++) { /* records without collisions, kept by round-0 finishers */
            slot[k] = b + k;
            out_x[b + k] = xs[k] + (vs[k] / eps) * rs[k];
        }
        if (out_v)
            memcpy(out_v + b, vs, (size_t)m * 8);
        if (out_coll)
            memset(out_coll + b, 0, (size_t)m * 8);
        if (out_first)
            memcpy(out_first + b, rs, (size_t)m * 8);
        if (out_last)
            memcpy(out_last + b, rs, (size_t)m * 8);
        for (int64_t rnd = 0;; rnd++) {
            uniforms(keys, 0, 0, c, 1, 1.0, dtau, m);
            numpy_loop(&loops[0], dtau, m);
            ptrdiff_t count = flights(rs, dtau, c, done, scale, m);
            if (!rnd) /* the first overlaps of the particles that go on */
                memcpy(first, dtau, (size_t)m * 8);
            collisions += rnd * count;
            for (int k = 0; rnd && count && k < m; k++) {
                int64_t s = slot[k];
                if (!done[k])
                    continue;
                out_x[s] = xs[k] + (vs[k] / eps) * rs[k];
                if (out_v)
                    out_v[s] = vs[k];
                if (out_coll)
                    out_coll[s] = rnd;
                if (out_first)
                    out_first[s] = first[k];
                if (out_last)
                    out_last[s] = rs[k];
            }
            if (count == m)
                break;
            m = (int)compact(done, m, cols, kind == KD ? 9 : 8);
            if (kind == KD) {
                kd_steps(kd, dtau, steps, rs, ea, m);
                numpy_loop(&loops[1], ea, m);
            }
            collide(kind, keys, c, dtau, xs, vs, rs, steps, ea, kd, eps, sd, mean, m);
        }
    }
    return collisions;
}
