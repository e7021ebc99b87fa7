#include "isa/builder.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace icicle
{

ProgramBuilder::ProgramBuilder(std::string name_)
    : name(std::move(name_)), codeBase(0x10000), dataBase(0x200000)
{}

Label
ProgramBuilder::newLabel()
{
    labels.push_back(LabelInfo{});
    return Label{static_cast<u32>(labels.size() - 1)};
}

void
ProgramBuilder::bind(Label label)
{
    ICICLE_ASSERT(label.valid() && label.id < labels.size(),
                  "bind of invalid label");
    LabelInfo &info = labels[label.id];
    if (info.bound)
        fatal("label bound twice");
    info.bound = true;
    info.isData = false;
    info.offset = insts.size();
}

void
ProgramBuilder::bindData(Label label)
{
    ICICLE_ASSERT(label.valid() && label.id < labels.size(),
                  "bindData of invalid label");
    LabelInfo &info = labels[label.id];
    if (info.bound)
        fatal("label bound twice");
    info.bound = true;
    info.isData = true;
    info.offset = dataBytes.size();
}

Label
ProgramBuilder::here()
{
    Label l = newLabel();
    bind(l);
    return l;
}

Label
ProgramBuilder::dataLabelHere()
{
    labels.push_back(LabelInfo{true, true, dataBytes.size()});
    return Label{static_cast<u32>(labels.size() - 1)};
}

Label
ProgramBuilder::space(u64 nbytes)
{
    Label l = dataLabelHere();
    dataBytes.resize(dataBytes.size() + nbytes, 0);
    return l;
}

Label
ProgramBuilder::dword(u64 value)
{
    alignData(8);
    Label l = dataLabelHere();
    for (int i = 0; i < 8; i++)
        dataBytes.push_back(static_cast<u8>(value >> (8 * i)));
    return l;
}

Label
ProgramBuilder::dwords(const std::vector<u64> &values)
{
    static_assert(std::endian::native == std::endian::little,
                  "dwords copies host words as little-endian bytes");
    alignData(8);
    Label l = dataLabelHere();
    const auto *first = reinterpret_cast<const u8 *>(values.data());
    dataBytes.insert(dataBytes.end(), first, first + values.size() * 8);
    return l;
}

Label
ProgramBuilder::dwordSpace(u64 count)
{
    alignData(8);
    return space(count * 8);
}

void
ProgramBuilder::setDword(Label array, u64 index, u64 value)
{
    static_assert(std::endian::native == std::endian::little,
                  "setDword stores host words as little-endian bytes");
    ICICLE_ASSERT(array.valid() && array.id < labels.size() &&
                      labels[array.id].isData,
                  "setDword on a non-data label");
    const u64 offset = labels[array.id].offset + index * 8;
    ICICLE_ASSERT(offset + 8 <= dataBytes.size(),
                  "setDword past the end of the data segment");
    std::memcpy(dataBytes.data() + offset, &value, 8);
}

Label
ProgramBuilder::word(u32 value)
{
    alignData(4);
    Label l = dataLabelHere();
    for (int i = 0; i < 4; i++)
        dataBytes.push_back(static_cast<u8>(value >> (8 * i)));
    return l;
}

Label
ProgramBuilder::bytes(const std::vector<u8> &values)
{
    Label l = dataLabelHere();
    dataBytes.insert(dataBytes.end(), values.begin(), values.end());
    return l;
}

void
ProgramBuilder::alignData(u64 alignment)
{
    while (dataBytes.size() % alignment)
        dataBytes.push_back(0);
}

void
ProgramBuilder::emit(const DecodedInst &inst)
{
    insts.push_back(inst);
}

namespace
{

DecodedInst
makeR(Op op, u8 rd, u8 rs1, u8 rs2)
{
    DecodedInst d;
    d.op = op;
    d.rd = rd;
    d.rs1 = rs1;
    d.rs2 = rs2;
    return d;
}

DecodedInst
makeI(Op op, u8 rd, u8 rs1, i64 imm)
{
    DecodedInst d;
    d.op = op;
    d.rd = rd;
    d.rs1 = rs1;
    d.imm = imm;
    return d;
}

DecodedInst
makeS(Op op, u8 rs2, u8 rs1, i64 imm)
{
    DecodedInst d;
    d.op = op;
    d.rs1 = rs1;
    d.rs2 = rs2;
    d.imm = imm;
    return d;
}

} // namespace

void ProgramBuilder::add(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Add, rd, rs1, rs2)); }
void ProgramBuilder::sub(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Sub, rd, rs1, rs2)); }
void ProgramBuilder::sll(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Sll, rd, rs1, rs2)); }
void ProgramBuilder::slt(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Slt, rd, rs1, rs2)); }
void ProgramBuilder::sltu(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Sltu, rd, rs1, rs2)); }
void ProgramBuilder::xor_(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Xor, rd, rs1, rs2)); }
void ProgramBuilder::srl(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Srl, rd, rs1, rs2)); }
void ProgramBuilder::sra(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Sra, rd, rs1, rs2)); }
void ProgramBuilder::or_(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Or, rd, rs1, rs2)); }
void ProgramBuilder::and_(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::And, rd, rs1, rs2)); }
void ProgramBuilder::addw(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Addw, rd, rs1, rs2)); }
void ProgramBuilder::subw(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Subw, rd, rs1, rs2)); }
void ProgramBuilder::sllw(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Sllw, rd, rs1, rs2)); }
void ProgramBuilder::srlw(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Srlw, rd, rs1, rs2)); }
void ProgramBuilder::sraw(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Sraw, rd, rs1, rs2)); }
void ProgramBuilder::mulw(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Mulw, rd, rs1, rs2)); }
void ProgramBuilder::divw(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Divw, rd, rs1, rs2)); }
void ProgramBuilder::divuw(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Divuw, rd, rs1, rs2)); }
void ProgramBuilder::remw(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Remw, rd, rs1, rs2)); }
void ProgramBuilder::remuw(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Remuw, rd, rs1, rs2)); }
void ProgramBuilder::mul(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Mul, rd, rs1, rs2)); }
void ProgramBuilder::mulh(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Mulh, rd, rs1, rs2)); }
void ProgramBuilder::mulhu(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Mulhu, rd, rs1, rs2)); }
void ProgramBuilder::div(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Div, rd, rs1, rs2)); }
void ProgramBuilder::divu(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Divu, rd, rs1, rs2)); }
void ProgramBuilder::rem(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Rem, rd, rs1, rs2)); }
void ProgramBuilder::remu(u8 rd, u8 rs1, u8 rs2)
{ emit(makeR(Op::Remu, rd, rs1, rs2)); }

void ProgramBuilder::addi(u8 rd, u8 rs1, i64 imm)
{ emit(makeI(Op::Addi, rd, rs1, imm)); }
void ProgramBuilder::addiw(u8 rd, u8 rs1, i64 imm)
{ emit(makeI(Op::Addiw, rd, rs1, imm)); }
void ProgramBuilder::slti(u8 rd, u8 rs1, i64 imm)
{ emit(makeI(Op::Slti, rd, rs1, imm)); }
void ProgramBuilder::sltiu(u8 rd, u8 rs1, i64 imm)
{ emit(makeI(Op::Sltiu, rd, rs1, imm)); }
void ProgramBuilder::xori(u8 rd, u8 rs1, i64 imm)
{ emit(makeI(Op::Xori, rd, rs1, imm)); }
void ProgramBuilder::ori(u8 rd, u8 rs1, i64 imm)
{ emit(makeI(Op::Ori, rd, rs1, imm)); }
void ProgramBuilder::andi(u8 rd, u8 rs1, i64 imm)
{ emit(makeI(Op::Andi, rd, rs1, imm)); }
void ProgramBuilder::slli(u8 rd, u8 rs1, i64 shamt)
{ emit(makeI(Op::Slli, rd, rs1, shamt)); }
void ProgramBuilder::srli(u8 rd, u8 rs1, i64 shamt)
{ emit(makeI(Op::Srli, rd, rs1, shamt)); }
void ProgramBuilder::srai(u8 rd, u8 rs1, i64 shamt)
{ emit(makeI(Op::Srai, rd, rs1, shamt)); }

void ProgramBuilder::lb(u8 rd, u8 rs1, i64 off)
{ emit(makeI(Op::Lb, rd, rs1, off)); }
void ProgramBuilder::lbu(u8 rd, u8 rs1, i64 off)
{ emit(makeI(Op::Lbu, rd, rs1, off)); }
void ProgramBuilder::lh(u8 rd, u8 rs1, i64 off)
{ emit(makeI(Op::Lh, rd, rs1, off)); }
void ProgramBuilder::lhu(u8 rd, u8 rs1, i64 off)
{ emit(makeI(Op::Lhu, rd, rs1, off)); }
void ProgramBuilder::lw(u8 rd, u8 rs1, i64 off)
{ emit(makeI(Op::Lw, rd, rs1, off)); }
void ProgramBuilder::lwu(u8 rd, u8 rs1, i64 off)
{ emit(makeI(Op::Lwu, rd, rs1, off)); }
void ProgramBuilder::ld(u8 rd, u8 rs1, i64 off)
{ emit(makeI(Op::Ld, rd, rs1, off)); }
void ProgramBuilder::sb(u8 rs2, u8 rs1, i64 off)
{ emit(makeS(Op::Sb, rs2, rs1, off)); }
void ProgramBuilder::sh(u8 rs2, u8 rs1, i64 off)
{ emit(makeS(Op::Sh, rs2, rs1, off)); }
void ProgramBuilder::sw(u8 rs2, u8 rs1, i64 off)
{ emit(makeS(Op::Sw, rs2, rs1, off)); }
void ProgramBuilder::sd(u8 rs2, u8 rs1, i64 off)
{ emit(makeS(Op::Sd, rs2, rs1, off)); }

void
ProgramBuilder::emitLabelRef(DecodedInst inst, Label target)
{
    ICICLE_ASSERT(target.valid() && target.id < labels.size(),
                  "branch to invalid label");
    fixups.push_back(
        Fixup{Fixup::Kind::BranchOrJump, insts.size(), target.id});
    emit(inst);
}

void ProgramBuilder::beq(u8 rs1, u8 rs2, Label t)
{ emitLabelRef(makeS(Op::Beq, rs2, rs1, 0), t); }
void ProgramBuilder::bne(u8 rs1, u8 rs2, Label t)
{ emitLabelRef(makeS(Op::Bne, rs2, rs1, 0), t); }
void ProgramBuilder::blt(u8 rs1, u8 rs2, Label t)
{ emitLabelRef(makeS(Op::Blt, rs2, rs1, 0), t); }
void ProgramBuilder::bge(u8 rs1, u8 rs2, Label t)
{ emitLabelRef(makeS(Op::Bge, rs2, rs1, 0), t); }
void ProgramBuilder::bltu(u8 rs1, u8 rs2, Label t)
{ emitLabelRef(makeS(Op::Bltu, rs2, rs1, 0), t); }
void ProgramBuilder::bgeu(u8 rs1, u8 rs2, Label t)
{ emitLabelRef(makeS(Op::Bgeu, rs2, rs1, 0), t); }

void
ProgramBuilder::jal(u8 rd, Label target)
{
    DecodedInst d;
    d.op = Op::Jal;
    d.rd = rd;
    emitLabelRef(d, target);
}

void ProgramBuilder::jalr(u8 rd, u8 rs1, i64 off)
{ emit(makeI(Op::Jalr, rd, rs1, off)); }

void
ProgramBuilder::lui(u8 rd, i64 imm)
{
    DecodedInst d;
    d.op = Op::Lui;
    d.rd = rd;
    d.imm = imm;
    emit(d);
}

void
ProgramBuilder::auipc(u8 rd, i64 imm)
{
    DecodedInst d;
    d.op = Op::Auipc;
    d.rd = rd;
    d.imm = imm;
    emit(d);
}

void ProgramBuilder::fence() { emit(DecodedInst{Op::Fence}); }
void ProgramBuilder::fenceI() { emit(DecodedInst{Op::FenceI}); }
void ProgramBuilder::ecall() { emit(DecodedInst{Op::Ecall}); }
void ProgramBuilder::ebreak() { emit(DecodedInst{Op::Ebreak}); }

void ProgramBuilder::csrrw(u8 rd, u32 csr, u8 rs1)
{ emit(makeI(Op::Csrrw, rd, rs1, csr)); }
void ProgramBuilder::csrrs(u8 rd, u32 csr, u8 rs1)
{ emit(makeI(Op::Csrrs, rd, rs1, csr)); }
void ProgramBuilder::csrrc(u8 rd, u32 csr, u8 rs1)
{ emit(makeI(Op::Csrrc, rd, rs1, csr)); }
void ProgramBuilder::csrrwi(u8 rd, u32 csr, u8 zimm)
{ emit(makeI(Op::Csrrwi, rd, zimm, csr)); }

void ProgramBuilder::nop() { addi(0, 0, 0); }
void ProgramBuilder::mv(u8 rd, u8 rs) { addi(rd, rs, 0); }

void
ProgramBuilder::li(u8 rd, i64 value)
{
    if (value >= -2048 && value <= 2047) {
        addi(rd, reg::zero, value);
        return;
    }
    if (value >= INT32_MIN && value <= INT32_MAX) {
        // lui + addiw with the usual carry adjustment.
        i64 hi = (value + 0x800) >> 12 << 12;
        i64 lo = value - hi;
        // lui sign-extends from bit 31; keep hi in 32-bit range.
        lui(rd, static_cast<i32>(hi));
        if (lo != 0)
            addiw(rd, rd, lo);
        return;
    }
    // General 64-bit constant: build the upper 32 bits, shift, then OR
    // in the low bits 11 at a time.
    i64 upper = value >> 32;
    u64 lower = static_cast<u64>(value) & 0xffffffffull;
    li(rd, upper);
    slli(rd, rd, 11);
    ori(rd, rd, static_cast<i64>((lower >> 21) & 0x7ff));
    slli(rd, rd, 11);
    ori(rd, rd, static_cast<i64>((lower >> 10) & 0x7ff));
    slli(rd, rd, 10);
    ori(rd, rd, static_cast<i64>(lower & 0x3ff));
}

void
ProgramBuilder::la(u8 rd, Label label)
{
    ICICLE_ASSERT(label.valid() && label.id < labels.size(),
                  "la of invalid label");
    // Fixed two-instruction lui+addi pair patched at build time. Our
    // address space fits comfortably in 31 bits.
    fixups.push_back(
        Fixup{Fixup::Kind::LuiAddiPair, insts.size(), label.id});
    lui(rd, 0);
    addi(rd, rd, 0);
}

void ProgramBuilder::j(Label target) { jal(reg::zero, target); }
void ProgramBuilder::call(Label target) { jal(reg::ra, target); }
void ProgramBuilder::ret() { jalr(reg::zero, reg::ra, 0); }
void ProgramBuilder::beqz(u8 rs, Label t) { beq(rs, reg::zero, t); }
void ProgramBuilder::bnez(u8 rs, Label t) { bne(rs, reg::zero, t); }
void ProgramBuilder::bgt(u8 rs1, u8 rs2, Label t) { blt(rs2, rs1, t); }
void ProgramBuilder::ble(u8 rs1, u8 rs2, Label t) { bge(rs2, rs1, t); }
void ProgramBuilder::halt() { ecall(); }

Program
ProgramBuilder::build()
{
    if (built)
        fatal("program '", name, "' built twice");
    built = true;
    Program prog;
    prog.name = name;
    prog.codeBase = codeBase;
    prog.dataBase = dataBase;
    prog.entry = codeBase;
    prog.data = std::move(dataBytes);

    for (const Fixup &fixup : fixups) {
        const LabelInfo &info = labels[fixup.labelId];
        if (!info.bound)
            fatal("unbound label referenced in ", name);
        if (fixup.kind == Fixup::Kind::BranchOrJump) {
            if (info.isData)
                fatal("branch to data label in ", name);
            const i64 target = static_cast<i64>(info.offset) * 4;
            const i64 source = static_cast<i64>(fixup.instIndex) * 4;
            insts[fixup.instIndex].imm = target - source;
        } else {
            // Data labels store byte offsets; code labels store
            // instruction indices.
            const i64 addr =
                info.isData
                    ? static_cast<i64>(dataBase + info.offset)
                    : static_cast<i64>(codeBase + info.offset * 4);
            i64 hi = (addr + 0x800) >> 12 << 12;
            i64 lo = addr - hi;
            insts[fixup.instIndex].imm = hi;
            insts[fixup.instIndex + 1].imm = lo;
        }
    }

    prog.code.reserve(insts.size());
    for (const DecodedInst &inst : insts)
        prog.code.push_back(encode(inst));

    if (prog.dataBase < prog.codeBase + prog.codeBytes())
        fatal("code segment overflows into data segment in ", name);
    return prog;
}

} // namespace icicle
