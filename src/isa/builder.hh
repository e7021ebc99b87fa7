/**
 * @file
 * Assembler-style in-memory program construction DSL.
 *
 * Workloads are written against this builder the way baremetal RISC-V
 * test programs are written in assembly: labels, branches, pseudo-ops
 * (li/la/mv/j/call/ret), and a data section. The builder performs the
 * label fixups and emits canonical RV64 machine code.
 */

#ifndef ICICLE_ISA_BUILDER_HH
#define ICICLE_ISA_BUILDER_HH

#include <string>
#include <vector>

#include "isa/encoding.hh"
#include "isa/program.hh"

namespace icicle
{

/** Opaque label handle returned by ProgramBuilder::newLabel(). */
struct Label
{
    u32 id = ~0u;
    bool valid() const { return id != ~0u; }
};

/**
 * Builds a Program instruction by instruction.
 *
 * Code labels may be bound after use (forward branches); data labels
 * are defined by the data-emission helpers and may also be referenced
 * before definition via la().
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name = "program");

    // ---- labels ----------------------------------------------------
    /** Create an unbound code label. */
    Label newLabel();
    /** Bind a code label to the current emission point. */
    void bind(Label label);
    /** Bind a label to the current *data* cursor (assembler use). */
    void bindData(Label label);
    /** Convenience: create and immediately bind. */
    Label here();

    // ---- data section ----------------------------------------------
    /** Reserve and zero-fill bytes; returns a label for the start. */
    Label space(u64 bytes);
    /** Emit a 64-bit little-endian data word; returns its label. */
    Label dword(u64 value);
    /** Emit an array of 64-bit values; returns label of element 0. */
    Label dwords(const std::vector<u64> &values);
    /**
     * Reserve `count` zeroed 64-bit words; returns the label of element
     * 0. Fill them in place with setDword(), so a large image is never
     * built in a second buffer and copied.
     */
    Label dwordSpace(u64 count);
    /** Store a 64-bit little-endian value at element `index` of a
     * dwordSpace() array. */
    void setDword(Label array, u64 index, u64 value);
    /** Emit a 32-bit value; returns its label. */
    Label word(u32 value);
    /** Emit raw bytes; returns label of the first. */
    Label bytes(const std::vector<u8> &values);
    /** Align the data cursor to a power-of-two boundary. */
    void alignData(u64 alignment);

    // ---- raw instructions -------------------------------------------
    void emit(const DecodedInst &inst);

    // R-type
    void add(u8 rd, u8 rs1, u8 rs2);
    void sub(u8 rd, u8 rs1, u8 rs2);
    void sll(u8 rd, u8 rs1, u8 rs2);
    void slt(u8 rd, u8 rs1, u8 rs2);
    void sltu(u8 rd, u8 rs1, u8 rs2);
    void xor_(u8 rd, u8 rs1, u8 rs2);
    void srl(u8 rd, u8 rs1, u8 rs2);
    void sra(u8 rd, u8 rs1, u8 rs2);
    void or_(u8 rd, u8 rs1, u8 rs2);
    void and_(u8 rd, u8 rs1, u8 rs2);
    void addw(u8 rd, u8 rs1, u8 rs2);
    void subw(u8 rd, u8 rs1, u8 rs2);
    void sllw(u8 rd, u8 rs1, u8 rs2);
    void srlw(u8 rd, u8 rs1, u8 rs2);
    void sraw(u8 rd, u8 rs1, u8 rs2);
    void mulw(u8 rd, u8 rs1, u8 rs2);
    void divw(u8 rd, u8 rs1, u8 rs2);
    void divuw(u8 rd, u8 rs1, u8 rs2);
    void remw(u8 rd, u8 rs1, u8 rs2);
    void remuw(u8 rd, u8 rs1, u8 rs2);
    void mul(u8 rd, u8 rs1, u8 rs2);
    void mulh(u8 rd, u8 rs1, u8 rs2);
    void mulhu(u8 rd, u8 rs1, u8 rs2);
    void div(u8 rd, u8 rs1, u8 rs2);
    void divu(u8 rd, u8 rs1, u8 rs2);
    void rem(u8 rd, u8 rs1, u8 rs2);
    void remu(u8 rd, u8 rs1, u8 rs2);

    // I-type
    void addi(u8 rd, u8 rs1, i64 imm);
    void addiw(u8 rd, u8 rs1, i64 imm);
    void slti(u8 rd, u8 rs1, i64 imm);
    void sltiu(u8 rd, u8 rs1, i64 imm);
    void xori(u8 rd, u8 rs1, i64 imm);
    void ori(u8 rd, u8 rs1, i64 imm);
    void andi(u8 rd, u8 rs1, i64 imm);
    void slli(u8 rd, u8 rs1, i64 shamt);
    void srli(u8 rd, u8 rs1, i64 shamt);
    void srai(u8 rd, u8 rs1, i64 shamt);

    // Loads / stores
    void lb(u8 rd, u8 rs1, i64 offset);
    void lbu(u8 rd, u8 rs1, i64 offset);
    void lh(u8 rd, u8 rs1, i64 offset);
    void lhu(u8 rd, u8 rs1, i64 offset);
    void lw(u8 rd, u8 rs1, i64 offset);
    void lwu(u8 rd, u8 rs1, i64 offset);
    void ld(u8 rd, u8 rs1, i64 offset);
    void sb(u8 rs2, u8 rs1, i64 offset);
    void sh(u8 rs2, u8 rs1, i64 offset);
    void sw(u8 rs2, u8 rs1, i64 offset);
    void sd(u8 rs2, u8 rs1, i64 offset);

    // Control flow (label-based)
    void beq(u8 rs1, u8 rs2, Label target);
    void bne(u8 rs1, u8 rs2, Label target);
    void blt(u8 rs1, u8 rs2, Label target);
    void bge(u8 rs1, u8 rs2, Label target);
    void bltu(u8 rs1, u8 rs2, Label target);
    void bgeu(u8 rs1, u8 rs2, Label target);
    void jal(u8 rd, Label target);
    void jalr(u8 rd, u8 rs1, i64 offset);

    // U-type
    void lui(u8 rd, i64 imm);
    void auipc(u8 rd, i64 imm);

    // System
    void fence();
    void fenceI();
    void ecall();
    void ebreak();
    void csrrw(u8 rd, u32 csr, u8 rs1);
    void csrrs(u8 rd, u32 csr, u8 rs1);
    void csrrc(u8 rd, u32 csr, u8 rs1);
    void csrrwi(u8 rd, u32 csr, u8 zimm);

    // ---- pseudo-instructions ----------------------------------------
    void nop();
    /** rd = rs. */
    void mv(u8 rd, u8 rs);
    /** Load an arbitrary 64-bit constant (emits 1..8 instructions). */
    void li(u8 rd, i64 value);
    /** Load the absolute address of a data or code label. */
    void la(u8 rd, Label label);
    /** Unconditional jump. */
    void j(Label target);
    /** Call a code label (ra-linked). */
    void call(Label target);
    /** Return through ra. */
    void ret();
    void beqz(u8 rs, Label target);
    void bnez(u8 rs, Label target);
    void bgt(u8 rs1, u8 rs2, Label target);
    void ble(u8 rs1, u8 rs2, Label target);
    /** Terminate the program with exit code in a0. */
    void halt();

    /** Current instruction index (for size accounting). */
    u64 numInsts() const { return insts.size(); }

    /**
     * Resolve all fixups and produce the final image. fatal()s on
     * unbound labels or out-of-range branch offsets. The data segment
     * moves into the Program, so a builder builds once; a second
     * build() is fatal.
     */
    Program build();

  private:
    struct Fixup
    {
        enum class Kind { BranchOrJump, LuiAddiPair };
        Kind kind;
        u64 instIndex;
        u32 labelId;
    };

    struct LabelInfo
    {
        bool bound = false;
        bool isData = false;
        u64 offset = 0; ///< instruction index (code) or byte (data)
    };

    void emitLabelRef(DecodedInst inst, Label target);
    Label dataLabelHere();

    std::string name;
    std::vector<DecodedInst> insts;
    std::vector<u8> dataBytes;
    std::vector<LabelInfo> labels;
    std::vector<Fixup> fixups;
    Addr codeBase;
    Addr dataBase;
    bool built = false;
};

} // namespace icicle

#endif // ICICLE_ISA_BUILDER_HH
