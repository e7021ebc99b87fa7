/**
 * @file
 * Unit tests for the ISA layer: encode/decode round-trips, the
 * program builder, and the functional executor (riscv-tests style).
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "common/logging.hh"
#include "isa/builder.hh"
#include "isa/encoding.hh"
#include "isa/executor.hh"

namespace icicle
{
namespace
{

using namespace reg;

// ---------------------------------------------------------- encoding

TEST(Encoding, RoundTripRType)
{
    for (Op op : {Op::Add, Op::Sub, Op::Sll, Op::Slt, Op::Sltu, Op::Xor,
                  Op::Srl, Op::Sra, Op::Or, Op::And, Op::Addw, Op::Subw,
                  Op::Sllw, Op::Srlw, Op::Sraw, Op::Mul, Op::Mulh,
                  Op::Mulhsu, Op::Mulhu, Op::Div, Op::Divu, Op::Rem,
                  Op::Remu, Op::Mulw, Op::Divw, Op::Divuw, Op::Remw,
                  Op::Remuw}) {
        DecodedInst inst;
        inst.op = op;
        inst.rd = 5;
        inst.rs1 = 6;
        inst.rs2 = 7;
        EXPECT_EQ(decode(encode(inst)), inst) << opName(op);
    }
}

TEST(Encoding, RoundTripIType)
{
    for (Op op : {Op::Addi, Op::Slti, Op::Sltiu, Op::Xori, Op::Ori,
                  Op::Andi, Op::Addiw, Op::Jalr, Op::Lb, Op::Lh, Op::Lw,
                  Op::Ld, Op::Lbu, Op::Lhu, Op::Lwu}) {
        for (i64 imm : {-2048ll, -1ll, 0ll, 1ll, 2047ll}) {
            DecodedInst inst;
            inst.op = op;
            inst.rd = 10;
            inst.rs1 = 11;
            inst.imm = imm;
            EXPECT_EQ(decode(encode(inst)), inst)
                << opName(op) << " imm=" << imm;
        }
    }
}

TEST(Encoding, RoundTripShifts)
{
    for (Op op : {Op::Slli, Op::Srli, Op::Srai}) {
        for (i64 shamt : {0ll, 1ll, 31ll, 63ll}) {
            DecodedInst inst;
            inst.op = op;
            inst.rd = 3;
            inst.rs1 = 4;
            inst.imm = shamt;
            EXPECT_EQ(decode(encode(inst)), inst);
        }
    }
    for (Op op : {Op::Slliw, Op::Srliw, Op::Sraiw}) {
        DecodedInst inst;
        inst.op = op;
        inst.rd = 3;
        inst.rs1 = 4;
        inst.imm = 17;
        EXPECT_EQ(decode(encode(inst)), inst);
    }
}

TEST(Encoding, RoundTripStoresAndBranches)
{
    for (Op op : {Op::Sb, Op::Sh, Op::Sw, Op::Sd}) {
        DecodedInst inst;
        inst.op = op;
        inst.rs1 = 8;
        inst.rs2 = 9;
        inst.imm = -128;
        EXPECT_EQ(decode(encode(inst)), inst);
    }
    for (Op op : {Op::Beq, Op::Bne, Op::Blt, Op::Bge, Op::Bltu,
                  Op::Bgeu}) {
        for (i64 imm : {-4096ll, -2ll, 0ll, 2ll, 4094ll}) {
            DecodedInst inst;
            inst.op = op;
            inst.rs1 = 8;
            inst.rs2 = 9;
            inst.imm = imm;
            EXPECT_EQ(decode(encode(inst)), inst);
        }
    }
}

TEST(Encoding, RoundTripUJAndSystem)
{
    for (Op op : {Op::Lui, Op::Auipc}) {
        DecodedInst inst;
        inst.op = op;
        inst.rd = 15;
        inst.imm = 0x12345000;
        EXPECT_EQ(decode(encode(inst)), inst);
    }
    {
        DecodedInst inst;
        inst.op = Op::Jal;
        inst.rd = 1;
        inst.imm = -1048576;
        EXPECT_EQ(decode(encode(inst)), inst);
        inst.imm = 1048574;
        EXPECT_EQ(decode(encode(inst)), inst);
    }
    EXPECT_EQ(decode(encode(DecodedInst{Op::Ecall})).op, Op::Ecall);
    EXPECT_EQ(decode(encode(DecodedInst{Op::Ebreak})).op, Op::Ebreak);
    EXPECT_EQ(decode(encode(DecodedInst{Op::Fence})).op, Op::Fence);
    EXPECT_EQ(decode(encode(DecodedInst{Op::FenceI})).op, Op::FenceI);
}

TEST(Encoding, RoundTripCsr)
{
    for (Op op : {Op::Csrrw, Op::Csrrs, Op::Csrrc}) {
        DecodedInst inst;
        inst.op = op;
        inst.rd = 10;
        inst.rs1 = 11;
        inst.imm = 0xB00;
        EXPECT_EQ(decode(encode(inst)), inst);
    }
}

TEST(Encoding, KnownEncodings)
{
    // Cross-checked against the RISC-V spec: addi x1, x2, 3.
    DecodedInst inst;
    inst.op = Op::Addi;
    inst.rd = 1;
    inst.rs1 = 2;
    inst.imm = 3;
    EXPECT_EQ(encode(inst), 0x00310093u);
    // add x3, x4, x5
    inst = DecodedInst{};
    inst.op = Op::Add;
    inst.rd = 3;
    inst.rs1 = 4;
    inst.rs2 = 5;
    EXPECT_EQ(encode(inst), 0x005201b3u);
    // ecall
    EXPECT_EQ(encode(DecodedInst{Op::Ecall}), 0x00000073u);
}

TEST(Encoding, IllegalDecodes)
{
    EXPECT_EQ(decode(0x00000000u).op, Op::Illegal);
    EXPECT_EQ(decode(0xffffffffu).op, Op::Illegal);
}

// ----------------------------------------------------------- builder

TEST(Builder, ForwardAndBackwardBranches)
{
    ProgramBuilder b("branches");
    Label loop = b.newLabel();
    Label done = b.newLabel();
    b.li(a0, 0);
    b.li(t0, 10);
    b.bind(loop);
    b.addi(a0, a0, 1);
    b.blt(a0, t0, loop);
    b.beq(a0, t0, done);
    b.li(a0, 99); // skipped
    b.bind(done);
    b.halt();

    Executor exec(b.build());
    exec.run();
    EXPECT_TRUE(exec.halted());
    EXPECT_EQ(exec.exitCode(), 10u);
}

TEST(Builder, LiCoversFullRange)
{
    const i64 values[] = {0, 1, -1, 2047, -2048, 2048, 123456,
                          -123456, 0x7fffffffll, -0x80000000ll,
                          0x123456789abcdefll, -0x123456789abcdefll,
                          INT64_MAX, INT64_MIN};
    for (i64 value : values) {
        ProgramBuilder b("li");
        b.li(a0, value);
        b.halt();
        Executor exec(b.build());
        exec.run();
        EXPECT_EQ(exec.exitCode(), static_cast<u64>(value))
            << "value=" << value;
    }
}

TEST(Builder, DataSectionAndLa)
{
    ProgramBuilder b("data");
    Label table = b.dwords({7, 11, 13});
    b.la(a1, table);
    b.ld(a0, a1, 8);
    b.halt();
    Executor exec(b.build());
    exec.run();
    EXPECT_EQ(exec.exitCode(), 11u);
}

TEST(Builder, LaOnCodeLabel)
{
    // Regression: code labels store instruction indices, which the
    // la fixup must scale to byte addresses.
    ProgramBuilder b("lacode");
    Label func = b.newLabel();
    Label main = b.newLabel();
    b.j(main);
    b.bind(func);
    b.li(a0, 55);
    b.ret();
    b.bind(main);
    b.la(t0, func);
    b.jalr(reg::ra, t0, 0); // indirect call through the la address
    b.halt();
    Executor exec(b.build());
    exec.run(10000);
    ASSERT_TRUE(exec.halted());
    EXPECT_EQ(exec.exitCode(), 55u);
}

TEST(Builder, CallRet)
{
    ProgramBuilder b("call");
    Label func = b.newLabel();
    Label main = b.newLabel();
    b.j(main);
    b.bind(func);
    b.addi(a0, a0, 5);
    b.ret();
    b.bind(main);
    b.li(a0, 1);
    b.call(func);
    b.call(func);
    b.halt();
    Executor exec(b.build());
    exec.run();
    EXPECT_EQ(exec.exitCode(), 11u);
}

// ---------------------------------------------------------- executor

TEST(Executor, ArithmeticSemantics)
{
    ProgramBuilder b("arith");
    b.li(t0, -7);
    b.li(t1, 3);
    b.div(a0, t0, t1);   // -2
    b.rem(a1, t0, t1);   // -1
    b.mul(a2, t0, t1);   // -21
    b.slli(a3, t1, 62);
    b.srai(a4, a3, 62);  // 3 -> shifted back: -1 (0b11 at top)
    b.add(a0, a0, a1);   // -3
    b.add(a0, a0, a2);   // -24
    b.halt();
    Executor exec(b.build());
    exec.run();
    EXPECT_EQ(static_cast<i64>(exec.reg(reg::a0)), -24);
    EXPECT_EQ(static_cast<i64>(exec.reg(reg::a4)), -1);
}

TEST(Executor, MulhVariants)
{
    ProgramBuilder b("mulh");
    b.li(t0, -1);          // 0xfff...f
    b.li(t1, 2);
    b.mulh(a0, t0, t1);    // signed high: -1 * 2 -> high = -1
    b.mulhu(a1, t0, t1);   // unsigned high: (2^64-1)*2 -> high = 1
    b.li(t2, 0x100000000ll);
    b.mulhu(a2, t2, t2);   // 2^32 * 2^32 -> high = 1
    b.halt();
    Executor exec(b.build());
    exec.run();
    EXPECT_EQ(static_cast<i64>(exec.reg(a0)), -1);
    EXPECT_EQ(exec.reg(a1), 1u);
    EXPECT_EQ(exec.reg(a2), 1u);
}

TEST(Executor, Word32Variants)
{
    ProgramBuilder b("w32");
    b.li(t0, 0x100000007ll); // truncates to 7 in W ops
    b.li(t1, 3);
    b.divw(a0, t0, t1);  // 7/3 = 2
    b.remw(a1, t0, t1);  // 1
    b.mulw(a2, t0, t1);  // 21
    b.subw(a3, t1, t0);  // 3-7 = -4 sign-extended
    b.sllw(a4, t1, t1);  // 3<<3 = 24
    b.halt();
    Executor exec(b.build());
    exec.run();
    EXPECT_EQ(exec.reg(a0), 2u);
    EXPECT_EQ(exec.reg(a1), 1u);
    EXPECT_EQ(exec.reg(a2), 21u);
    EXPECT_EQ(static_cast<i64>(exec.reg(a3)), -4);
    EXPECT_EQ(exec.reg(a4), 24u);
}

TEST(Executor, JalrClearsLowBit)
{
    ProgramBuilder b("jalrlow");
    Label target = b.newLabel();
    Label main = b.newLabel();
    b.j(main);
    b.bind(target);
    b.li(a0, 9);
    b.halt();
    b.bind(main);
    b.la(t0, target);
    b.addi(t0, t0, 1);     // misaligned by one; jalr must mask it
    b.jalr(zero, t0, 0);
    Executor exec(b.build());
    exec.run(1000);
    ASSERT_TRUE(exec.halted());
    EXPECT_EQ(exec.exitCode(), 9u);
}

TEST(Executor, OutOfBoundsAccessIsFatal)
{
    ProgramBuilder b("oob");
    b.li(t0, -8);
    b.ld(t1, t0, 0); // address ~2^64: out of the flat memory
    b.halt();
    Executor exec(b.build());
    EXPECT_THROW(exec.run(10), FatalError);
}

TEST(Executor, UntouchedMemoryReadsZero)
{
    ProgramBuilder b("untouched");
    b.dwords({~0ull, ~0ull});
    b.halt();
    const Program prog = b.build();
    Executor exec(prog);

    const Addr data_end = prog.dataBase + prog.data.size();
    EXPECT_EQ(exec.loadMem(data_end - 1, 1), 0xffu);
    EXPECT_EQ(exec.loadMem(data_end, 1), 0u);
    EXPECT_EQ(exec.loadMem(prog.memSize - 8, 8), 0u);
    const Addr middle = prog.memSize / 2;
    for (Addr addr = middle; addr < middle + 4096; addr += 8)
        ASSERT_EQ(exec.loadMem(addr, 8), 0u) << std::hex << addr;
}

TEST(Executor, AccessesStopAtTheTopOfMemory)
{
    ProgramBuilder b("top");
    b.halt();
    const Program prog = b.build();
    Executor exec(prog);
    const Addr top = prog.memSize;

    EXPECT_EQ(exec.loadMem(top - 8, 8), 0u);
    EXPECT_THROW(exec.loadMem(top - 7, 8), FatalError);
    exec.storeMem(top - 1, 0xab, 1);
    EXPECT_EQ(exec.loadMem(top - 1, 1), 0xabu);
    EXPECT_THROW(exec.storeMem(top, 0xab, 1), FatalError);
}

TEST(Executor, FailedMappingNamesTheSize)
{
    ProgramBuilder b("huge");
    b.halt();
    Program prog = b.build();
    prog.memSize = 1ull << 62; // beyond any user address space
    try {
        Executor exec(prog);
        FAIL() << "a 2^62-byte image was mapped";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("4611686018427387904"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Executor, MoveKeepsTheImage)
{
    static_assert(!std::is_copy_constructible_v<Executor>);
    ProgramBuilder b("move");
    Label value = b.dword(42);
    b.la(t0, value);
    b.ld(a0, t0, 0);
    b.halt();
    Executor first(b.build());
    first.storeMem(0x300000, 7, 8);

    Executor moved(std::move(first));
    moved.run();
    EXPECT_EQ(moved.exitCode(), 42u);
    EXPECT_EQ(moved.loadMem(0x300000, 8), 7u);
}

TEST(Executor, DivisionEdgeCases)
{
    ProgramBuilder b("divedge");
    b.li(t0, 5);
    b.li(t1, 0);
    b.div(a0, t0, t1);  // div by zero -> -1
    b.rem(a1, t0, t1);  // rem by zero -> rs1
    b.li(t2, INT64_MIN);
    b.li(t3, -1);
    b.div(a2, t2, t3);  // overflow -> INT64_MIN
    b.rem(a3, t2, t3);  // overflow -> 0
    b.halt();
    Executor exec(b.build());
    exec.run();
    EXPECT_EQ(exec.reg(a0), ~0ull);
    EXPECT_EQ(exec.reg(a1), 5ull);
    EXPECT_EQ(exec.reg(a2), static_cast<u64>(INT64_MIN));
    EXPECT_EQ(exec.reg(a3), 0ull);
}

TEST(Executor, LoadStoreWidths)
{
    ProgramBuilder b("ldst");
    Label buf = b.space(64);
    b.la(t0, buf);
    b.li(t1, -2);                 // 0xfff...fe
    b.sd(t1, t0, 0);
    b.lbu(a0, t0, 0);             // 0xfe
    b.lb(a1, t0, 0);              // -2
    b.lhu(a2, t0, 0);             // 0xfffe
    b.lwu(a3, t0, 0);             // 0xfffffffe
    b.lw(a4, t0, 0);              // -2
    b.halt();
    Executor exec(b.build());
    exec.run();
    EXPECT_EQ(exec.reg(a0), 0xfeull);
    EXPECT_EQ(static_cast<i64>(exec.reg(a1)), -2);
    EXPECT_EQ(exec.reg(a2), 0xfffeull);
    EXPECT_EQ(exec.reg(a3), 0xfffffffeull);
    EXPECT_EQ(static_cast<i64>(exec.reg(a4)), -2);
}

TEST(Executor, X0IsHardwiredZero)
{
    ProgramBuilder b("x0");
    b.addi(zero, zero, 5);
    b.mv(a0, zero);
    b.halt();
    Executor exec(b.build());
    exec.run();
    EXPECT_EQ(exec.exitCode(), 0u);
}

TEST(Executor, WordOpsSignExtend)
{
    ProgramBuilder b("wordops");
    b.li(t0, 0x7fffffff);
    b.addiw(a0, t0, 1);   // -> 0x80000000 sign-extended
    b.halt();
    Executor exec(b.build());
    exec.run();
    EXPECT_EQ(exec.reg(a0), 0xffffffff80000000ull);
}

TEST(Executor, StepReportsBranchAndMemInfo)
{
    ProgramBuilder b("stepinfo");
    Label target = b.newLabel();
    Label buf = b.space(8);
    b.li(t0, 1);
    b.bnez(t0, target);
    b.nop();
    b.bind(target);
    b.la(t1, buf);
    b.sd(t0, t1, 0);
    b.halt();
    Executor exec(b.build());

    Retired r = exec.step(); // li
    r = exec.step();         // bnez
    EXPECT_TRUE(r.isBranch());
    EXPECT_TRUE(r.taken);
    EXPECT_NE(r.nextPc, r.pc + 4);
    r = exec.step();         // la (lui)
    r = exec.step();         // la (addi)
    r = exec.step();         // sd
    EXPECT_TRUE(r.isStore());
    EXPECT_EQ(r.memSize, 8);
    EXPECT_EQ(exec.loadMem(r.memAddr, 8), 1u);
}

} // namespace
} // namespace icicle
