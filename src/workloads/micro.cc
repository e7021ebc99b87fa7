/**
 * @file
 * Microbenchmark kernels (riscv-tests style). Every kernel verifies
 * its own result and exits 0 on success.
 */

#include "workloads/workloads.hh"

#include "common/random.hh"
#include "isa/builder.hh"

namespace icicle
{
namespace workloads
{

using namespace reg;

namespace
{

/** Random 63-bit positive values for sort inputs. */
std::vector<u64>
randomValues(u64 count, u64 seed, u64 mask = 0xffffffffull)
{
    Rng rng(seed);
    std::vector<u64> values(count);
    for (u64 i = 0; i < count; i++)
        values[i] = rng.next() & mask;
    return values;
}

/**
 * Emit: verify that `total_bytes` of 64-bit data at label `arr` is
 * ascending; halt with exit code `fail_code` on violation, else fall
 * through.
 */
void
emitVerifySorted(ProgramBuilder &b, Label arr, i64 total_bytes,
                 i64 fail_code)
{
    Label loop = b.newLabel();
    Label okay = b.newLabel();
    Label fail = b.newLabel();
    b.la(t0, arr);
    b.li(t1, 8);
    b.li(t2, total_bytes);
    b.bind(loop);
    b.bge(t1, t2, okay);
    b.add(t3, t0, t1);
    b.ld(t4, t3, -8);
    b.ld(t5, t3, 0);
    b.bgt(t4, t5, fail);
    b.addi(t1, t1, 8);
    b.j(loop);
    b.bind(fail);
    b.li(a0, fail_code);
    b.halt();
    b.bind(okay);
}

} // namespace

Program
vvadd()
{
    ProgramBuilder b("vvadd");
    const u64 n = 4096;
    const std::vector<u64> va = randomValues(n, 11);
    const std::vector<u64> vb = randomValues(n, 22);
    Label a = b.dwords(va);
    Label bb = b.dwords(vb);
    Label c = b.space(n * 8);

    b.la(s0, a);
    b.la(s1, bb);
    b.la(s2, c);
    b.li(s3, static_cast<i64>(n * 8));
    b.li(t0, 0);
    Label loop = b.newLabel();
    b.bind(loop);
    b.add(t1, s0, t0);
    b.ld(t2, t1, 0);
    b.add(t1, s1, t0);
    b.ld(t3, t1, 0);
    b.add(t2, t2, t3);
    b.add(t1, s2, t0);
    b.sd(t2, t1, 0);
    b.addi(t0, t0, 8);
    b.blt(t0, s3, loop);

    // Verify: c[i] - a[i] == b[i].
    Label vloop = b.newLabel(), fail = b.newLabel(), okay = b.newLabel();
    b.li(t0, 0);
    b.bind(vloop);
    b.bge(t0, s3, okay);
    b.add(t1, s2, t0);
    b.ld(t2, t1, 0);
    b.add(t1, s0, t0);
    b.ld(t3, t1, 0);
    b.sub(t2, t2, t3);
    b.add(t1, s1, t0);
    b.ld(t3, t1, 0);
    b.bne(t2, t3, fail);
    b.addi(t0, t0, 8);
    b.j(vloop);
    b.bind(fail);
    b.li(a0, 1);
    b.halt();
    b.bind(okay);
    b.li(a0, 0);
    b.halt();
    return b.build();
}

Program
mm()
{
    // 24x24 integer matrix multiply, naive i-j-k.
    ProgramBuilder b("mm");
    const i64 n = 24;
    const std::vector<u64> ma = randomValues(n * n, 33, 0xffff);
    const std::vector<u64> mb = randomValues(n * n, 44, 0xffff);
    u64 expected = 0; // checksum of the product matrix
    {
        std::vector<u64> mc(n * n, 0);
        for (i64 i = 0; i < n; i++) {
            for (i64 j = 0; j < n; j++) {
                u64 acc = 0;
                for (i64 k = 0; k < n; k++) {
                    acc += ma[i * n + k] * mb[k * n + j];
                }
                mc[i * n + j] = acc;
            }
        }
        for (u64 v : mc)
            expected = expected * 31 + v;
    }
    Label la_ = b.dwords(ma);
    Label lb_ = b.dwords(mb);
    Label lc_ = b.space(n * n * 8);

    b.la(s0, la_);
    b.la(s1, lb_);
    b.la(s2, lc_);
    b.li(s3, n);
    b.li(s4, 0); // i
    Label iloop = b.newLabel(), jloop = b.newLabel(),
          kloop = b.newLabel();
    Label kdone = b.newLabel(), jdone = b.newLabel(),
          idone = b.newLabel();
    b.bind(iloop);
    b.bge(s4, s3, idone);
    b.li(s5, 0); // j
    b.bind(jloop);
    b.bge(s5, s3, jdone);
    b.li(s6, 0);  // k
    b.li(s7, 0);  // acc
    // a row pointer: s8 = A + i*n*8
    b.mul(s8, s4, s3);
    b.slli(s8, s8, 3);
    b.add(s8, s8, s0);
    // b column pointer: s9 = B + j*8
    b.slli(s9, s5, 3);
    b.add(s9, s9, s1);
    b.bind(kloop);
    b.bge(s6, s3, kdone);
    b.slli(t0, s6, 3);
    b.add(t0, t0, s8);
    b.ld(t1, t0, 0);        // a[i][k]
    b.mul(t2, s6, s3);
    b.slli(t2, t2, 3);
    b.add(t2, t2, s9);
    b.ld(t3, t2, 0);        // b[k][j]
    b.mul(t4, t1, t3);
    b.add(s7, s7, t4);
    b.addi(s6, s6, 1);
    b.j(kloop);
    b.bind(kdone);
    b.mul(t0, s4, s3);
    b.add(t0, t0, s5);
    b.slli(t0, t0, 3);
    b.add(t0, t0, s2);
    b.sd(s7, t0, 0);
    b.addi(s5, s5, 1);
    b.j(jloop);
    b.bind(jdone);
    b.addi(s4, s4, 1);
    b.j(iloop);
    b.bind(idone);

    // Checksum C and compare.
    Label csloop = b.newLabel(), csdone = b.newLabel(),
          fail = b.newLabel();
    b.li(t0, 0);           // offset
    b.li(t1, n * n * 8);
    b.li(t2, 0);           // checksum
    b.li(t3, 31);
    b.bind(csloop);
    b.bge(t0, t1, csdone);
    b.add(t4, s2, t0);
    b.ld(t5, t4, 0);
    b.mul(t2, t2, t3);
    b.add(t2, t2, t5);
    b.addi(t0, t0, 8);
    b.j(csloop);
    b.bind(csdone);
    b.li(t4, static_cast<i64>(expected));
    b.bne(t2, t4, fail);
    b.li(a0, 0);
    b.halt();
    b.bind(fail);
    b.li(a0, 1);
    b.halt();
    return b.build();
}

Program
memcpyKernel()
{
    // 128 KiB copy: streams through L1D, every 8th access misses.
    ProgramBuilder b("memcpy");
    const u64 bytes = 128 * 1024;
    const std::vector<u64> src = randomValues(bytes / 8, 55);
    Label lsrc = b.dwords(src);
    Label ldst = b.space(bytes);

    b.la(s0, lsrc);
    b.la(s1, ldst);
    b.li(s2, static_cast<i64>(bytes));
    b.li(t0, 0);
    Label loop = b.newLabel();
    b.bind(loop);
    b.add(t1, s0, t0);
    b.ld(t2, t1, 0);
    b.add(t3, s1, t0);
    b.sd(t2, t3, 0);
    b.addi(t0, t0, 8);
    b.blt(t0, s2, loop);

    // Verify a strided sample.
    Label vloop = b.newLabel(), fail = b.newLabel(), okay = b.newLabel();
    b.li(t0, 0);
    b.li(t5, 4096);
    b.bind(vloop);
    b.bge(t0, s2, okay);
    b.add(t1, s0, t0);
    b.ld(t2, t1, 0);
    b.add(t3, s1, t0);
    b.ld(t4, t3, 0);
    b.bne(t2, t4, fail);
    b.add(t0, t0, t5);
    b.j(vloop);
    b.bind(fail);
    b.li(a0, 1);
    b.halt();
    b.bind(okay);
    b.li(a0, 0);
    b.halt();
    return b.build();
}

Program
mergesort()
{
    // Bottom-up mergesort of 1024 64-bit keys (the §III workload).
    ProgramBuilder b("mergesort");
    const u64 n = 1024;
    const i64 total = static_cast<i64>(n * 8);
    Label larr = b.dwords(randomValues(n, 77));
    Label lbuf = b.space(n * 8);

    b.la(s0, larr); // src
    b.la(s1, lbuf); // dst
    b.li(s2, total);
    b.li(s3, 8);    // width in bytes

    Label pass = b.newLabel(), pass_done = b.newLabel();
    Label block = b.newLabel(), block_done = b.newLabel();
    Label merge = b.newLabel(), take_right = b.newLabel();
    Label advance = b.newLabel();
    Label drain_left = b.newLabel(), drain_left_done = b.newLabel();
    Label drain_right = b.newLabel(), drain_right_done = b.newLabel();
    Label next_block = b.newLabel();

    b.bind(pass);
    b.bge(s3, s2, pass_done);
    b.li(s4, 0); // i = block start
    b.bind(block);
    b.bge(s4, s2, block_done);
    b.mv(t0, s4);        // l
    b.add(t1, s4, s3);   // r = i + width
    b.mv(s5, t1);        // lend
    b.add(s6, t1, s3);   // rend = i + 2*width
    b.mv(t2, s4);        // out
    b.bind(merge);
    b.bge(t0, s5, drain_right);
    b.bge(t1, s6, drain_left);
    b.add(t3, s0, t0);
    b.ld(a3, t3, 0);
    b.add(t4, s0, t1);
    b.ld(a4, t4, 0);
    b.bgt(a3, a4, take_right);
    b.add(t5, s1, t2);
    b.sd(a3, t5, 0);
    b.addi(t0, t0, 8);
    b.j(advance);
    b.bind(take_right);
    b.add(t5, s1, t2);
    b.sd(a4, t5, 0);
    b.addi(t1, t1, 8);
    b.bind(advance);
    b.addi(t2, t2, 8);
    b.j(merge);
    b.bind(drain_left);
    b.bge(t0, s5, drain_left_done);
    b.add(t3, s0, t0);
    b.ld(a3, t3, 0);
    b.add(t5, s1, t2);
    b.sd(a3, t5, 0);
    b.addi(t0, t0, 8);
    b.addi(t2, t2, 8);
    b.j(drain_left);
    b.bind(drain_left_done);
    b.j(next_block);
    b.bind(drain_right);
    b.bge(t1, s6, drain_right_done);
    b.add(t4, s0, t1);
    b.ld(a4, t4, 0);
    b.add(t5, s1, t2);
    b.sd(a4, t5, 0);
    b.addi(t1, t1, 8);
    b.addi(t2, t2, 8);
    b.j(drain_right);
    b.bind(drain_right_done);
    b.bind(next_block);
    b.slli(t6, s3, 1);
    b.add(s4, s4, t6);
    b.j(block);
    b.bind(block_done);
    // swap src/dst, double width
    b.mv(t0, s0);
    b.mv(s0, s1);
    b.mv(s1, t0);
    b.slli(s3, s3, 1);
    b.j(pass);
    b.bind(pass_done);

    // Copy sorted data back to `larr` location semantics not needed:
    // verify directly from s0.
    Label vloop = b.newLabel(), fail = b.newLabel(), okay = b.newLabel();
    b.li(t1, 8);
    b.bind(vloop);
    b.bge(t1, s2, okay);
    b.add(t3, s0, t1);
    b.ld(t4, t3, -8);
    b.ld(t5, t3, 0);
    b.bgt(t4, t5, fail);
    b.addi(t1, t1, 8);
    b.j(vloop);
    b.bind(fail);
    b.li(a0, 1);
    b.halt();
    b.bind(okay);
    b.li(a0, 0);
    b.halt();
    return b.build();
}

Program
qsortKernel()
{
    // Recursive quicksort, Lomuto partition: the pivot-comparison
    // branch is data-dependent, which dominates Bad Speculation on
    // Rocket (the paper's qsort highlight).
    ProgramBuilder b("qsort");
    const u64 n = 1024;
    const i64 total = static_cast<i64>(n * 8);
    Label larr = b.dwords(randomValues(n, 99));

    Label qsort_fn = b.newLabel();
    Label main = b.newLabel();
    b.j(main);

    // qsort(a0 = lo byte offset, a1 = hi byte offset), base in s0.
    b.bind(qsort_fn);
    Label body = b.newLabel();
    Label ret_now = b.newLabel();
    b.blt(a0, a1, body);
    b.bind(ret_now);
    b.ret();
    b.bind(body);
    b.addi(sp, sp, -48);
    b.sd(ra, sp, 0);
    b.sd(s1, sp, 8);
    b.sd(s2, sp, 16);
    b.sd(s3, sp, 24);
    b.sd(s4, sp, 32);
    b.mv(s3, a0); // lo
    b.mv(s4, a1); // hi
    b.add(t0, s0, s4);
    b.ld(a2, t0, 0);   // pivot = A[hi]
    b.addi(s1, s3, -8); // i = lo - 8
    b.mv(s2, s3);       // j = lo
    Label part = b.newLabel(), noswap = b.newLabel(),
          part_done = b.newLabel();
    b.bind(part);
    b.bge(s2, s4, part_done);
    b.add(t1, s0, s2);
    b.ld(a3, t1, 0);    // A[j]
    b.bgt(a3, a2, noswap);
    b.addi(s1, s1, 8);
    b.add(t2, s0, s1);
    b.ld(a4, t2, 0);    // A[i]
    b.sd(a3, t2, 0);
    b.sd(a4, t1, 0);
    b.bind(noswap);
    b.addi(s2, s2, 8);
    b.j(part);
    b.bind(part_done);
    b.addi(s1, s1, 8);
    b.add(t1, s0, s1);
    b.ld(a3, t1, 0);
    b.add(t2, s0, s4);
    b.ld(a4, t2, 0);
    b.sd(a4, t1, 0);
    b.sd(a3, t2, 0);
    // Recurse left and right.
    b.mv(a0, s3);
    b.addi(a1, s1, -8);
    b.call(qsort_fn);
    b.addi(a0, s1, 8);
    b.mv(a1, s4);
    b.call(qsort_fn);
    b.ld(ra, sp, 0);
    b.ld(s1, sp, 8);
    b.ld(s2, sp, 16);
    b.ld(s3, sp, 24);
    b.ld(s4, sp, 32);
    b.addi(sp, sp, 48);
    b.ret();

    b.bind(main);
    b.la(s0, larr);
    b.li(a0, 0);
    b.li(a1, total - 8);
    b.call(qsort_fn);
    emitVerifySorted(b, larr, total, 1);
    b.li(a0, 0);
    b.halt();
    return b.build();
}

Program
rsort()
{
    // LSD radix sort, four 8-bit digit passes: loop-centric, no
    // data-dependent branches -> near-ideal IPC (paper's rsort).
    ProgramBuilder b("rsort");
    const u64 n = 1024;
    const i64 total = static_cast<i64>(n * 8);
    Label larr = b.dwords(randomValues(n, 123));
    Label lbuf = b.space(n * 8);
    Label lhist = b.space(256 * 8);

    b.la(s0, larr);
    b.la(s1, lbuf);
    b.la(s2, lhist);
    b.li(s3, total);
    b.li(s4, 0); // shift

    Label pass = b.newLabel(), pass_done = b.newLabel();
    b.bind(pass);
    b.li(t0, 32);
    b.bge(s4, t0, pass_done);

    // clear histogram
    Label clr = b.newLabel(), clr_done = b.newLabel();
    b.li(t0, 0);
    b.li(t1, 256 * 8);
    b.bind(clr);
    b.bge(t0, t1, clr_done);
    b.add(t2, s2, t0);
    b.sd(zero, t2, 0);
    b.addi(t0, t0, 8);
    b.j(clr);
    b.bind(clr_done);

    // count digits
    Label cnt = b.newLabel(), cnt_done = b.newLabel();
    b.li(t0, 0);
    b.bind(cnt);
    b.bge(t0, s3, cnt_done);
    b.add(t1, s0, t0);
    b.ld(t2, t1, 0);
    b.srl(t2, t2, s4);
    b.andi(t2, t2, 255);
    b.slli(t2, t2, 3);
    b.add(t2, t2, s2);
    b.ld(t3, t2, 0);
    b.addi(t3, t3, 1);
    b.sd(t3, t2, 0);
    b.addi(t0, t0, 8);
    b.j(cnt);
    b.bind(cnt_done);

    // exclusive prefix sum -> byte offsets
    Label pfx = b.newLabel(), pfx_done = b.newLabel();
    b.li(t0, 0);
    b.li(t1, 256 * 8);
    b.li(t3, 0); // running byte offset
    b.bind(pfx);
    b.bge(t0, t1, pfx_done);
    b.add(t2, s2, t0);
    b.ld(t4, t2, 0);
    b.sd(t3, t2, 0);
    b.slli(t4, t4, 3);
    b.add(t3, t3, t4);
    b.addi(t0, t0, 8);
    b.j(pfx);
    b.bind(pfx_done);

    // scatter
    Label sct = b.newLabel(), sct_done = b.newLabel();
    b.li(t0, 0);
    b.bind(sct);
    b.bge(t0, s3, sct_done);
    b.add(t1, s0, t0);
    b.ld(t2, t1, 0);
    b.srl(t3, t2, s4);
    b.andi(t3, t3, 255);
    b.slli(t3, t3, 3);
    b.add(t3, t3, s2);
    b.ld(t4, t3, 0);
    b.add(t5, s1, t4);
    b.sd(t2, t5, 0);
    b.addi(t4, t4, 8);
    b.sd(t4, t3, 0);
    b.addi(t0, t0, 8);
    b.j(sct);
    b.bind(sct_done);

    // swap buffers, next digit
    b.mv(t0, s0);
    b.mv(s0, s1);
    b.mv(s1, t0);
    b.addi(s4, s4, 8);
    b.j(pass);
    b.bind(pass_done);

    // After an even number of passes the sorted data is back in s0.
    Label vloop = b.newLabel(), fail = b.newLabel(), okay = b.newLabel();
    b.li(t1, 8);
    b.bind(vloop);
    b.bge(t1, s3, okay);
    b.add(t3, s0, t1);
    b.ld(t4, t3, -8);
    b.ld(t5, t3, 0);
    b.bgt(t4, t5, fail);
    b.addi(t1, t1, 8);
    b.j(vloop);
    b.bind(fail);
    b.li(a0, 1);
    b.halt();
    b.bind(okay);
    b.li(a0, 0);
    b.halt();
    return b.build();
}

Program
towers()
{
    // Towers of Hanoi, depth 12: call-heavy recursion.
    ProgramBuilder b("towers");
    Label hanoi = b.newLabel();
    Label main = b.newLabel();
    b.j(main);

    // hanoi(a0 = n); move count accumulated in s0.
    b.bind(hanoi);
    Label recurse = b.newLabel();
    b.bnez(a0, recurse);
    b.ret();
    b.bind(recurse);
    b.addi(sp, sp, -16);
    b.sd(ra, sp, 0);
    b.sd(a0, sp, 8);
    b.addi(a0, a0, -1);
    b.call(hanoi);
    b.addi(s0, s0, 1);
    b.ld(a0, sp, 8);
    b.addi(a0, a0, -1);
    b.call(hanoi);
    b.ld(ra, sp, 0);
    b.addi(sp, sp, 16);
    b.ret();

    b.bind(main);
    b.li(s0, 0);
    b.li(a0, 12);
    b.call(hanoi);
    // 2^12 - 1 moves expected.
    b.li(t0, 4095);
    Label fail = b.newLabel();
    b.bne(s0, t0, fail);
    b.li(a0, 0);
    b.halt();
    b.bind(fail);
    b.li(a0, 1);
    b.halt();
    return b.build();
}

Program
spmv()
{
    // Sparse matrix-vector multiply: indirect x[col[k]] gathers over a
    // 256 KiB vector -> irregular misses.
    ProgramBuilder b("spmv");
    const u64 rows = 512;
    const u64 nnz_per_row = 8;
    const u64 nnz = rows * nnz_per_row;
    const u64 xlen = 32768;
    Rng rng(321);
    std::vector<u64> cols(nnz);     // byte offsets into x
    std::vector<u64> vals(nnz);
    for (u64 k = 0; k < nnz; k++) {
        cols[k] = rng.below(xlen) * 8;
        vals[k] = rng.next() & 0xffff;
    }
    const std::vector<u64> x = randomValues(xlen, 654, 0xffff);
    u64 expected = 0;
    for (u64 r = 0; r < rows; r++) {
        u64 acc = 0;
        for (u64 k = r * nnz_per_row; k < (r + 1) * nnz_per_row; k++)
            acc += vals[k] * x[cols[k] / 8];
        expected = expected * 31 + acc;
    }
    Label lcols = b.dwords(cols);
    Label lvals = b.dwords(vals);
    Label lx = b.dwords(x);

    b.la(s0, lcols);
    b.la(s1, lvals);
    b.la(s2, lx);
    b.li(s3, static_cast<i64>(nnz * 8));
    b.li(s5, 31);
    b.li(t0, 0);  // k byte offset
    b.li(s4, 0);  // checksum
    b.li(s6, 0);  // acc
    b.li(s7, 0);  // within-row counter
    Label loop = b.newLabel(), rowend = b.newLabel(),
          cont = b.newLabel(), done = b.newLabel();
    b.bind(loop);
    b.bge(t0, s3, done);
    b.add(t1, s0, t0);
    b.ld(t2, t1, 0);   // col byte offset
    b.add(t2, t2, s2);
    b.ld(t3, t2, 0);   // x[col]
    b.add(t1, s1, t0);
    b.ld(t4, t1, 0);   // val
    b.mul(t5, t3, t4);
    b.add(s6, s6, t5);
    b.addi(s7, s7, 1);
    b.li(t6, static_cast<i64>(nnz_per_row));
    b.bge(s7, t6, rowend);
    b.j(cont);
    b.bind(rowend);
    b.mul(s4, s4, s5);
    b.add(s4, s4, s6);
    b.li(s6, 0);
    b.li(s7, 0);
    b.bind(cont);
    b.addi(t0, t0, 8);
    b.j(loop);
    b.bind(done);
    b.li(t0, static_cast<i64>(expected));
    Label fail = b.newLabel();
    b.bne(s4, t0, fail);
    b.li(a0, 0);
    b.halt();
    b.bind(fail);
    b.li(a0, 1);
    b.halt();
    return b.build();
}

Program
pointerChase(u64 nodes, u64 hops)
{
    // A shuffled singly-linked list, one node per cache block.
    ProgramBuilder b("pointer-chase");
    Rng rng(4242);
    std::vector<u64> perm(nodes);
    for (u64 i = 0; i < nodes; i++)
        perm[i] = i;
    for (u64 i = nodes - 1; i > 0; i--)
        std::swap(perm[i], perm[rng.below(i + 1)]);
    const u64 stride = 64;
    Label list = b.dwordSpace(nodes * stride / 8);
    for (u64 i = 0; i < nodes; i++) {
        b.setDword(list, perm[i] * stride / 8,
                   perm[(i + 1) % nodes] * stride);
    }
    // Host-side expected final offset: node perm[i] links to
    // perm[i + 1], so `hops` hops from perm[0] end at
    // perm[hops % nodes].
    const u64 off = perm[hops % nodes] * stride;

    b.la(s0, list);
    b.li(t1, static_cast<i64>(perm[0] * stride));
    b.li(t2, static_cast<i64>(hops));
    Label loop = b.newLabel();
    b.bind(loop);
    b.add(t3, s0, t1);
    b.ld(t1, t3, 0);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.li(t4, static_cast<i64>(off));
    Label fail = b.newLabel();
    b.bne(t1, t4, fail);
    b.li(a0, 0);
    b.halt();
    b.bind(fail);
    b.li(a0, 1);
    b.halt();
    return b.build();
}

Program
icacheStress(u32 functions, u32 body_insts, u32 passes)
{
    // Round-robin calls through a code footprint larger than L1I.
    ProgramBuilder b("icache-stress");
    std::vector<Label> funcs;
    Label main = b.newLabel();
    b.j(main);
    for (u32 f = 0; f < functions; f++) {
        funcs.push_back(b.here());
        for (u32 i = 0; i < body_insts; i++)
            b.addi(s0, s0, 1);
        b.ret();
    }
    b.bind(main);
    b.li(s0, 0);
    b.li(s1, passes);
    Label outer = b.newLabel();
    b.bind(outer);
    for (u32 f = 0; f < functions; f++)
        b.call(funcs[f]);
    b.addi(s1, s1, -1);
    b.bnez(s1, outer);
    const i64 expected =
        static_cast<i64>(functions) * body_insts * passes;
    b.li(t0, expected);
    Label fail = b.newLabel();
    b.bne(s0, t0, fail);
    b.li(a0, 0);
    b.halt();
    b.bind(fail);
    b.li(a0, 1);
    b.halt();
    return b.build();
}

Program
brmiss(bool inverted)
{
    // A chain of 512 static branches, looped. In the base version
    // each branch alternates taken/not-taken across iterations: a
    // 2-bit BHT dithers and mispredicts nearly always, while a
    // history-based TAGE learns the alternation. The inverted version
    // takes every branch every iteration (trivially predictable) but
    // executes the padding that taken branches skip... inverted here
    // means the branch condition is inverted so it always falls
    // through and the padding always executes.
    ProgramBuilder b(inverted ? "brmiss-inv" : "brmiss");
    const u32 chain = 512;
    const u32 iters = 128;
    b.li(s0, iters);
    b.li(s1, 0);  // iteration counter (parity source)
    b.li(s2, 0);  // work accumulator
    Label outer = b.newLabel();
    b.bind(outer);
    b.andi(t0, s1, 1); // parity of this iteration
    for (u32 i = 0; i < chain; i++) {
        Label skip = b.newLabel();
        if (inverted) {
            // Condition never true: always falls through; padding runs.
            b.bnez(zero, skip);
        } else {
            // Taken on even iterations (starting taken locks a 2-bit
            // counter into its mispredicting dither), not-taken on
            // odd: alternates every iteration.
            b.beqz(t0, skip);
        }
        b.addi(s2, s2, 1); // padding the taken branch skips
        b.bind(skip);
        // Fixed per-link work (independent chains: absorbable ILP).
        b.addi(s2, s2, 2);
        b.addi(t3, t3, 1);
        b.addi(t4, t4, 1);
        b.addi(t5, t5, 1);
        b.addi(t6, t6, 1);
    }
    b.addi(s1, s1, 1);
    // The chain body exceeds the +-4 KiB branch range: branch over an
    // unconditional jump instead.
    Label chain_done = b.newLabel();
    b.bge(s1, s0, chain_done);
    b.j(outer);
    b.bind(chain_done);
    // Work check: padding executes on odd iterations (or always when
    // inverted).
    const i64 pad_iters = inverted ? iters : iters / 2;
    const i64 expected = static_cast<i64>(chain) *
                         (pad_iters + 2ll * iters);
    b.li(t1, expected);
    Label fail = b.newLabel();
    b.bne(s2, t1, fail);
    b.li(a0, 0);
    b.halt();
    b.bind(fail);
    b.li(a0, 1);
    b.halt();
    return b.build();
}

} // namespace workloads
} // namespace icicle
