/**
 * @file
 * SPEC CPU2017 intrate proxy kernels.
 *
 * Each proxy reproduces the *bottleneck structure* of its benchmark
 * as characterized in the paper's Fig. 7 and the workload literature:
 *
 *   505.mcf_r        out-of-L2 pointer chasing        ~80% backend/mem
 *   523.xalancbmk_r  pointer-heavy tree traversal      ~80% backend
 *   525.x264_r       dense high-ILP arithmetic + data  high retiring,
 *                    dependent branches                visible badspec
 *   531.deepsjeng_r  cache-resident table lookups      L1D-sensitive
 *   548.exchange2_r  recursive integer search          high retiring
 *   500.perlbench_r  string hashing + dispatch         mixed
 *   502.gcc_r        IR-node rewriting                 mixed backend
 *   520.omnetpp_r    binary-heap event queue           backend/mem
 *   541.leela_r      bitboard arithmetic + branches    mixed
 *   557.xz_r         match-finder byte runs            mem + badspec
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

std::vector<u64>
randomVec(u64 count, u64 seed, u64 mask = ~0ull)
{
    Rng rng(seed);
    std::vector<u64> values(count);
    for (u64 i = 0; i < count; i++)
        values[i] = rng.next() & mask;
    return values;
}

/** Exit 0 if reg is nonzero, else exit 1 (sanity check). */
void
emitNonzeroCheck(ProgramBuilder &b, u8 r)
{
    Label fail = b.newLabel();
    b.beqz(r, fail);
    b.li(a0, 0);
    b.halt();
    b.bind(fail);
    b.li(a0, 1);
    b.halt();
}

} // namespace

Program
spec505McfR()
{
    // Network-simplex flavour: chase shuffled arc pointers across a
    // 2 MiB structure (beyond the 512 KiB L2) and apply a cost test
    // per node.
    ProgramBuilder b("505.mcf_r");
    Rng rng(505);
    const u64 nodes = 32768; // x 64 B = 2 MiB
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
        b.setDword(list, perm[i] * stride / 8 + 1,
                   rng.next() & 0xffff); // cost
    }

    b.la(s0, list);
    b.li(t1, static_cast<i64>(perm[0] * stride));
    b.li(t2, 15000); // hops
    b.li(s1, 0);     // reduced-cost accumulator
    Label loop = b.newLabel(), cheap = b.newLabel(),
          next = b.newLabel();
    b.bind(loop);
    b.add(t3, s0, t1);
    b.ld(t4, t3, 8);      // cost
    b.ld(t1, t3, 0);      // next (chase)
    b.li(t5, 0x8000);
    b.blt(t4, t5, cheap); // data-dependent but skewed
    b.sub(s1, s1, t4);
    b.j(next);
    b.bind(cheap);
    b.add(s1, s1, t4);
    b.bind(next);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.ori(s1, s1, 1);
    emitNonzeroCheck(b, s1);
    return b.build();
}

Program
spec523XalancbmkR()
{
    // XML-tree flavour: repeated root-to-leaf descents through a
    // 1 MiB pointer tree, direction chosen by key comparison.
    ProgramBuilder b("523.xalancbmk_r");
    Rng rng(523);
    const u64 node_count = 32768; // x 32 B = 1 MiB
    // Node: [key, left_off, right_off, payload]
    Label tree = b.dwordSpace(node_count * 4);
    for (u64 i = 0; i < node_count; i++) {
        b.setDword(tree, i * 4, rng.next() & 0xffffffffull);
        b.setDword(tree, i * 4 + 1, rng.below(node_count) * 32);
        b.setDword(tree, i * 4 + 2, rng.below(node_count) * 32);
        b.setDword(tree, i * 4 + 3, rng.next() & 0xff);
    }

    b.la(s0, tree);
    b.li(s1, 2500);        // descents
    b.li(s2, 0x9e3779b9);  // key generator state
    b.li(s3, 0);           // payload accumulator
    Label descent = b.newLabel();
    b.bind(descent);
    // next pseudo-random search key (node keys are 32-bit: mask the
    // comparison key down so descents stay data-dependent)
    b.slli(t0, s2, 13);
    b.xor_(s2, s2, t0);
    b.srli(t0, s2, 7);
    b.xor_(s2, s2, t0);
    b.slli(t6, s2, 32);
    b.srli(t6, t6, 32);    // 32-bit search key
    // Start at a pseudo-random subtree (XPath queries land all over
    // the document; starting at the root would keep the hot top
    // levels L1-resident and hide the pointer-chasing cost).
    b.li(t1, static_cast<i64>(node_count));
    b.srli(t2, s2, 16);
    b.slli(t2, t2, 32);
    b.srli(t2, t2, 32);
    b.mul(t1, t1, t2);
    b.srli(t1, t1, 32);
    b.slli(t1, t1, 5);     // node byte offset
    b.li(t2, 14);          // depth
    Label walk = b.newLabel(), go_right = b.newLabel(),
          step_done = b.newLabel();
    b.bind(walk);
    b.add(t3, s0, t1);
    b.ld(t4, t3, 0);       // key
    b.ld(t5, t3, 24);      // payload
    b.add(s3, s3, t5);
    b.bltu(t4, t6, go_right);
    b.ld(t1, t3, 8);       // left
    b.j(step_done);
    b.bind(go_right);
    b.ld(t1, t3, 16);      // right
    b.bind(step_done);
    b.addi(t2, t2, -1);
    b.bnez(t2, walk);
    b.addi(s1, s1, -1);
    b.bnez(s1, descent);
    b.ori(s3, s3, 1);
    emitNonzeroCheck(b, s3);
    return b.build();
}

Program
spec525X264R()
{
    // Motion-estimation flavour: sum-of-absolute-differences between
    // a current and a reference frame, 8 pixels per load, with the
    // abs computed through a data-dependent branch and an early-skip
    // test per block (the source of x264's Bad Speculation). Frames
    // are correlated (video-like) and L1-resident, so the kernel is
    // dominated by high-ILP arithmetic.
    ProgramBuilder b("525.x264_r");
    const u64 pixels = 16384; // 16 KiB per frame
    std::vector<u64> cur_data = randomVec(pixels / 8, 525, 0xffffffff);
    std::vector<u64> ref_data = cur_data;
    {
        Rng noise(526);
        for (u64 &v : ref_data) {
            if (noise.chance(1, 8)) {
                v += noise.below(1 << 20); // small motion residue
            }
        }
    }
    Label cur = b.dwords(cur_data);
    Label ref = b.dwords(ref_data);
    const u64 passes = 6;

    b.la(s0, cur);
    b.la(s1, ref);
    b.li(s2, static_cast<i64>(pixels)); // byte count
    b.li(s3, 0);  // total SAD
    b.li(s6, passes);
    Label frame = b.newLabel();
    b.bind(frame);
    b.li(t0, 0);  // offset
    Label block = b.newLabel(), done = b.newLabel();
    b.bind(block);
    b.bge(t0, s2, done);
    b.li(s5, 0);  // block SAD
    for (int u = 0; u < 2; u++) { // 2 dwords per block row
        b.add(t1, s0, t0);
        b.ld(t2, t1, u * 8);
        b.add(t3, s1, t0);
        b.ld(t4, t3, u * 8);
        // Per-word absolute difference of packed bytes, approximated
        // with a 64-bit diff + branchy abs (keeps the dependent
        // branch behaviour of pixel loops).
        b.sub(t5, t2, t4);
        Label nonneg = b.newLabel(), acc = b.newLabel();
        b.bge(t5, zero, nonneg);
        b.sub(t5, zero, t5);
        b.j(acc);
        b.bind(nonneg);
        b.bind(acc);
        b.srli(t5, t5, 8); // scale to a SAD-like magnitude
        b.add(s5, s5, t5);
    }
    // Early-skip: blocks below threshold bypass the refinement work
    // (mostly skipped in correlated video, but data-dependent).
    Label skip = b.newLabel(), refined = b.newLabel();
    b.li(t6, 1 << 10);
    b.blt(s5, t6, skip);
    // refinement: extra ALU work, high ILP
    b.slli(t1, s5, 1);
    b.srli(t2, s5, 2);
    b.add(t1, t1, t2);
    b.xori(t1, t1, 0x155);
    b.add(s3, s3, t1);
    b.j(refined);
    b.bind(skip);
    b.add(s3, s3, s5);
    b.bind(refined);
    b.addi(t0, t0, 16);
    b.j(block);
    b.bind(done);
    b.addi(s6, s6, -1);
    b.bnez(s6, frame);
    b.ori(s3, s3, 1);
    emitNonzeroCheck(b, s3);
    return b.build();
}

Program
spec531DeepsjengR(u32 working_set_kib)
{
    // Chess-engine flavour: Zobrist-style hashing into a
    // transposition table sized to the working set under study
    // (Rocket CS1 compares 16 vs 32 KiB L1D with a 24 KiB table).
    ProgramBuilder b("531.deepsjeng_r");
    const u64 entries = working_set_kib * 1024 / 8;
    Label table = b.dwords(randomVec(entries, 531));

    b.la(s0, table);
    b.li(s1, static_cast<i64>(entries)); // not a power of two:
    // range-reduce with a multiply instead of a divider so the
    // divider does not mask the cache behaviour under study.
    b.li(s2, 40000); // probes
    b.li(s3, 0x12345678);   // position state
    b.li(s4, 0);            // eval accumulator
    b.li(s5, 0x9e3779b97f4a7c15ll); // odd: keeps the LCG a bijection
    Label loop = b.newLabel(), quiet = b.newLabel(),
          next = b.newLabel();
    b.bind(loop);
    b.mul(s3, s3, s5);
    b.addi(s3, s3, 0x55);
    b.srli(t0, s3, 32);     // 32-bit hash
    b.mul(t0, t0, s1);
    b.srli(t0, t0, 32);     // index = hash * entries / 2^32
    b.slli(t0, t0, 3);
    b.add(t1, s0, t0);
    b.ld(t2, t1, 0);        // table probe
    b.andi(t3, t2, 3);
    b.beqz(t3, quiet);      // data-dependent, ~25/75 biased
    b.xor_(s4, s4, t2);
    b.slli(t4, t2, 3);
    b.add(s4, s4, t4);
    b.j(next);
    b.bind(quiet);
    b.add(s4, s4, t2);
    b.bind(next);
    b.addi(s2, s2, -1);
    b.bnez(s2, loop);
    b.ori(s4, s4, 1);
    emitNonzeroCheck(b, s4);
    return b.build();
}

Program
spec548Exchange2R()
{
    // Recursive permutation search (the Fortran puzzle solver):
    // tight integer recursion with pruning, very high retiring.
    ProgramBuilder b("548.exchange2_r");
    Label solve = b.newLabel();
    Label main = b.newLabel();
    Label digits = b.space(16); // digit usage bitmap as bytes
    b.j(main);

    // solve(a0 = depth); uses s0 = count, s1 = digits base.
    b.bind(solve);
    {
        Label deep = b.newLabel();
        Label loop = b.newLabel(), taken = b.newLabel(),
              loop_end = b.newLabel();
        b.li(t0, 6);
        b.blt(a0, t0, deep);
        b.addi(s0, s0, 1); // complete assignment found
        b.ret();
        b.bind(deep);
        b.addi(sp, sp, -24);
        b.sd(ra, sp, 0);
        b.sd(s2, sp, 8);
        b.sd(a0, sp, 16);
        b.li(s2, 0); // candidate digit
        b.bind(loop);
        b.li(t1, 6);
        b.bge(s2, t1, loop_end);
        b.add(t2, s1, s2);
        b.lbu(t3, t2, 0);
        // Straight-line evaluation work per candidate (the real
        // benchmark spends most time in block-evaluation loops).
        b.slli(t4, s2, 2);
        b.add(t4, t4, s2);
        b.xori(t4, t4, 0x2f);
        b.slli(t5, t4, 1);
        b.add(t5, t5, t4);
        b.srli(t6, t5, 3);
        b.add(s0, s0, zero); // keep the counter register live
        b.bnez(t3, taken);    // pruning branch
        b.li(t4, 1);
        b.sb(t4, t2, 0);
        b.ld(a0, sp, 16);
        b.addi(a0, a0, 1);
        b.call(solve);
        b.add(t2, s1, s2);
        b.sb(zero, t2, 0);
        b.bind(taken);
        b.addi(s2, s2, 1);
        b.j(loop);
        b.bind(loop_end);
        b.ld(ra, sp, 0);
        b.ld(s2, sp, 8);
        b.addi(sp, sp, 24);
        b.ret();
    }

    b.bind(main);
    b.la(s1, digits);
    b.li(s0, 0);
    b.li(s6, 40); // repetitions
    Label rep = b.newLabel();
    b.bind(rep);
    b.li(a0, 0);
    b.call(solve);
    b.addi(s6, s6, -1);
    b.bnez(s6, rep);
    // 40 x 6! permutations counted.
    b.li(t0, 40 * 720);
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
spec500PerlbenchR()
{
    // Interpreter flavour: hash short strings, probe a hash table,
    // and dispatch through an opcode branch ladder.
    ProgramBuilder b("500.perlbench_r");
    const u64 str_bytes = 32768;
    const u64 table_entries = 8192; // 64 KiB
    Label strings = b.dwords(randomVec(str_bytes / 8, 500));
    Label table = b.dwords(randomVec(table_entries, 501, 0xffff));

    b.la(s0, strings);
    b.la(s1, table);
    b.li(s2, 3000); // operations
    b.li(s3, 0);    // result accumulator
    b.li(s4, 0);    // string cursor
    Label op = b.newLabel();
    b.bind(op);
    // Hash 16 bytes of "string".
    b.add(t0, s0, s4);
    b.ld(t1, t0, 0);
    b.ld(t2, t0, 8);
    b.li(t3, 31);
    b.mul(t4, t1, t3);
    b.add(t4, t4, t2);
    b.srli(t5, t4, 7);
    b.xor_(t4, t4, t5);
    // Probe the table.
    b.li(t5, static_cast<i64>(table_entries - 1));
    b.and_(t5, t4, t5);
    b.slli(t5, t5, 3);
    b.add(t5, t5, s1);
    b.ld(t6, t5, 0);
    // Dispatch ladder on the low bits of the probed value.
    b.andi(t0, t6, 7);
    Label c1 = b.newLabel(), c2 = b.newLabel(), c3 = b.newLabel(),
          cd = b.newLabel(), dispatched = b.newLabel();
    b.li(t1, 1);
    b.beq(t0, t1, c1);
    b.li(t1, 2);
    b.beq(t0, t1, c2);
    b.li(t1, 3);
    b.beq(t0, t1, c3);
    b.j(cd);
    b.bind(c1);
    b.add(s3, s3, t6);
    b.j(dispatched);
    b.bind(c2);
    b.xor_(s3, s3, t6);
    b.j(dispatched);
    b.bind(c3);
    b.slli(t2, t6, 1);
    b.add(s3, s3, t2);
    b.j(dispatched);
    b.bind(cd);
    b.sub(s3, s3, t6);
    b.bind(dispatched);
    // Advance the string cursor (wrap).
    b.addi(s4, s4, 16);
    b.li(t2, static_cast<i64>(str_bytes - 16));
    Label nowrap = b.newLabel();
    b.blt(s4, t2, nowrap);
    b.li(s4, 0);
    b.bind(nowrap);
    b.addi(s2, s2, -1);
    b.bnez(s2, op);
    b.ori(s3, s3, 1);
    emitNonzeroCheck(b, s3);
    return b.build();
}

Program
spec502GccR()
{
    // Compiler flavour: walk a list of IR "insns" (32 B nodes),
    // match against patterns through a branch ladder, and rewrite
    // operand fields in place.
    ProgramBuilder b("502.gcc_r");
    Rng rng(502);
    const u64 insns = 4096; // 128 KiB of nodes
    std::vector<u64> image(insns * 4);
    for (u64 i = 0; i < insns; i++) {
        image[i * 4] = rng.below(12);           // opcode
        image[i * 4 + 1] = rng.next() & 0xffff; // op1
        image[i * 4 + 2] = rng.next() & 0xffff; // op2
        image[i * 4 + 3] = ((i + 1) % insns) * 32;
    }
    Label nodes = b.dwords(image);

    b.la(s0, nodes);
    b.li(s1, 12000); // visited nodes (3 passes)
    b.li(s2, 0);     // rewrite count
    b.li(t1, 0);     // node offset
    Label visit = b.newLabel();
    Label fold = b.newLabel(), swap_ops = b.newLabel(),
          strength = b.newLabel(), nomatch = b.newLabel(),
          advance = b.newLabel();
    b.bind(visit);
    b.add(t2, s0, t1);
    b.ld(t3, t2, 0);  // opcode
    b.li(t4, 2);
    b.beq(t3, t4, fold);
    b.li(t4, 5);
    b.beq(t3, t4, swap_ops);
    b.li(t4, 9);
    b.beq(t3, t4, strength);
    b.j(nomatch);
    b.bind(fold);     // constant fold: op1 += op2
    b.ld(t5, t2, 8);
    b.ld(t6, t2, 16);
    b.add(t5, t5, t6);
    b.sd(t5, t2, 8);
    b.addi(s2, s2, 1);
    b.j(advance);
    b.bind(swap_ops); // canonicalize: swap operands
    b.ld(t5, t2, 8);
    b.ld(t6, t2, 16);
    b.sd(t6, t2, 8);
    b.sd(t5, t2, 16);
    b.addi(s2, s2, 1);
    b.j(advance);
    b.bind(strength); // strength-reduce: op1 <<= 1
    b.ld(t5, t2, 8);
    b.slli(t5, t5, 1);
    b.sd(t5, t2, 8);
    b.addi(s2, s2, 1);
    b.j(advance);
    b.bind(nomatch);
    b.bind(advance);
    b.ld(t1, t2, 24); // next node
    b.addi(s1, s1, -1);
    b.bnez(s1, visit);
    b.ori(s2, s2, 1);
    emitNonzeroCheck(b, s2);
    return b.build();
}

Program
spec520OmnetppR()
{
    // Discrete-event-simulation flavour: a binary min-heap event
    // queue (up to 256 KiB) with randomly mixed insert / extract-min
    // operations; sift loops have data-dependent trip counts and
    // scattered parent/child accesses.
    ProgramBuilder b("520.omnetpp_r");
    const u64 capacity = 32768;
    Label heap = b.space(capacity * 8);

    b.la(s0, heap);
    b.li(s1, 0);          // size (elements)
    b.li(s2, 20000);      // operations
    b.li(s3, 0x243f6a88); // rng state
    b.li(s4, 0);          // extracted-min accumulator
    b.li(s5, 12288);      // steady-state event population (96 KiB)

    Label op = b.newLabel(), do_push = b.newLabel(),
          do_pop = b.newLabel(), op_done = b.newLabel();
    b.bind(op);
    // rng step (xorshift)
    b.slli(t0, s3, 13);
    b.xor_(s3, s3, t0);
    b.srli(t0, s3, 7);
    b.xor_(s3, s3, t0);
    // grow to the steady-state population, then alternate pop/push
    b.blt(s1, s5, do_push);
    b.andi(t1, s3, 1);
    b.bnez(t1, do_pop);

    // ---- push(key = rng bits) --------------------------------------
    b.bind(do_push);
    b.srli(t2, s3, 8);       // key
    b.slli(t3, s1, 3);
    b.add(t3, t3, s0);
    b.sd(t2, t3, 0);         // heap[size] = key
    b.mv(t4, s1);            // i
    b.addi(s1, s1, 1);
    {
        Label sift_up = b.newLabel(), sift_done = b.newLabel();
        b.bind(sift_up);
        b.beqz(t4, sift_done);
        b.addi(t5, t4, -1);
        b.srli(t5, t5, 1);   // parent
        b.slli(a3, t5, 3);
        b.add(a3, a3, s0);
        b.ld(a4, a3, 0);     // heap[parent]
        b.slli(a5, t4, 3);
        b.add(a5, a5, s0);
        b.ld(a6, a5, 0);     // heap[i]
        b.bge(a6, a4, sift_done);
        b.sd(a6, a3, 0);     // swap
        b.sd(a4, a5, 0);
        b.mv(t4, t5);
        b.j(sift_up);
        b.bind(sift_done);
    }
    b.j(op_done);

    // ---- pop-min ----------------------------------------------------
    b.bind(do_pop);
    b.ld(t2, s0, 0);         // min
    b.add(s4, s4, t2);
    b.addi(s1, s1, -1);
    b.slli(t3, s1, 3);
    b.add(t3, t3, s0);
    b.ld(t2, t3, 0);         // last element
    b.sd(t2, s0, 0);         // heap[0] = last
    b.li(t4, 0);             // i
    {
        Label sift_down = b.newLabel(), sift_done = b.newLabel();
        Label pick_right = b.newLabel(), picked = b.newLabel();
        b.bind(sift_down);
        b.slli(t5, t4, 1);
        b.addi(t5, t5, 1);   // left child
        b.bge(t5, s1, sift_done);
        // choose the smaller child
        b.addi(a3, t5, 1);   // right child
        b.bge(a3, s1, picked);
        b.slli(a4, t5, 3);
        b.add(a4, a4, s0);
        b.ld(a5, a4, 0);     // heap[left]
        b.slli(a6, a3, 3);
        b.add(a6, a6, s0);
        b.ld(a7, a6, 0);     // heap[right]
        b.blt(a7, a5, pick_right);
        b.j(picked);
        b.bind(pick_right);
        b.mv(t5, a3);
        b.bind(picked);
        b.slli(a4, t4, 3);
        b.add(a4, a4, s0);
        b.ld(a5, a4, 0);     // heap[i]
        b.slli(a6, t5, 3);
        b.add(a6, a6, s0);
        b.ld(a7, a6, 0);     // heap[child]
        b.bge(a7, a5, sift_done);
        b.sd(a7, a4, 0);     // swap
        b.sd(a5, a6, 0);
        b.mv(t4, t5);
        b.j(sift_down);
        b.bind(sift_done);
    }

    b.bind(op_done);
    b.addi(s2, s2, -1);
    b.bnez(s2, op);
    b.ori(s4, s4, 1);
    emitNonzeroCheck(b, s4);
    return b.build();
}

Program
spec541LeelaR()
{
    // Go-engine flavour: bitboard liberties/popcount loops with
    // semi-predictable branches and small-table lookups.
    ProgramBuilder b("541.leela_r");
    const u64 boards = 2048;
    Label tbl = b.dwords(randomVec(boards, 541));

    b.la(s0, tbl);
    b.li(s1, 30);  // playout passes
    b.li(s2, 0);   // score
    Label pass = b.newLabel();
    b.bind(pass);
    b.li(t0, 0);   // board index byte offset
    b.li(t1, static_cast<i64>(boards * 8));
    Label board = b.newLabel(), board_done = b.newLabel();
    b.bind(board);
    b.bge(t0, t1, board_done);
    b.add(t2, s0, t0);
    b.ld(t3, t2, 0);
    // popcount by nibble loop (16 iterations, predictable).
    b.li(t4, 0);   // popcount
    b.li(t5, 16);
    Label pc = b.newLabel();
    b.bind(pc);
    b.andi(t6, t3, 15);
    // 4-bit popcount via two adds: t6 = (t6&1)+(t6>>1&1)+...
    b.andi(a3, t6, 1);
    b.srli(a4, t6, 1);
    b.andi(a4, a4, 1);
    b.add(a3, a3, a4);
    b.srli(a4, t6, 2);
    b.andi(a4, a4, 1);
    b.add(a3, a3, a4);
    b.srli(a4, t6, 3);
    b.add(a3, a3, a4);
    b.add(t4, t4, a3);
    b.srli(t3, t3, 4);
    b.addi(t5, t5, -1);
    b.bnez(t5, pc);
    // Semi-predictable decision on liberties.
    Label alive = b.newLabel(), scored = b.newLabel();
    b.li(a5, 28);
    b.bge(t4, a5, alive);
    b.addi(s2, s2, 1);
    b.j(scored);
    b.bind(alive);
    b.addi(s2, s2, 3);
    b.bind(scored);
    b.addi(t0, t0, 8);
    b.j(board);
    b.bind(board_done);
    b.addi(s1, s1, -1);
    b.bnez(s1, pass);
    emitNonzeroCheck(b, s2);
    return b.build();
}

Program
spec557XzR()
{
    // LZMA match-finder flavour: compare byte runs at random window
    // positions until the first mismatch (data-dependent loop exits)
    // over a 256 KiB window.
    ProgramBuilder b("557.xz_r");
    Rng rng(557);
    const u64 window = 256 * 1024;
    // Compressible-ish data: long runs with noise.
    std::vector<u64> image(window / 8);
    u64 current = 0;
    for (u64 i = 0; i < image.size(); i++) {
        if (rng.chance(1, 16))
            current = rng.next() & 0x0101010101010101ull;
        image[i] = current;
    }
    Label win = b.dwords(image);

    b.la(s0, win);
    b.li(s1, 4000);       // match trials
    b.li(s2, 0x6a09e667); // rng state
    b.li(s3, 0);          // total match length
    Label trial = b.newLabel();
    b.bind(trial);
    // two pseudo-random aligned positions
    b.slli(t0, s2, 13);
    b.xor_(s2, s2, t0);
    b.srli(t0, s2, 7);
    b.xor_(s2, s2, t0);
    b.li(t1, static_cast<i64>(window / 2 - 256));
    b.remu(t2, s2, t1);          // pos1
    b.andi(t2, t2, ~7ll);
    b.slli(t0, s2, 17);
    b.xor_(t0, t0, s2);
    b.remu(t3, t0, t1);          // pos2 (second half)
    b.andi(t3, t3, ~7ll);
    b.li(t4, static_cast<i64>(window / 2));
    b.add(t3, t3, t4);
    b.add(t2, t2, s0);
    b.add(t3, t3, s0);
    // run comparison, up to 16 dwords
    b.li(t5, 16);
    Label cmp = b.newLabel(), mismatch = b.newLabel(),
          trial_done = b.newLabel();
    b.bind(cmp);
    b.ld(a3, t2, 0);
    b.ld(a4, t3, 0);
    b.bne(a3, a4, mismatch);
    b.addi(s3, s3, 8);
    b.addi(t2, t2, 8);
    b.addi(t3, t3, 8);
    b.addi(t5, t5, -1);
    b.bnez(t5, cmp);
    b.j(trial_done);
    b.bind(mismatch);
    b.addi(s3, s3, 1);
    b.bind(trial_done);
    b.addi(s1, s1, -1);
    b.bnez(s1, trial);
    emitNonzeroCheck(b, s3);
    return b.build();
}

} // namespace workloads
} // namespace icicle
