/**
 * @file
 * Functional (architectural) executor for the RV64IM subset.
 *
 * The executor is the "oracle" behind both timing models: it executes
 * the committed instruction stream in program order and reports, for
 * each retired instruction, everything a timing model needs (branch
 * outcome, effective address, next PC). Both the in-order Rocket
 * model and the out-of-order BOOM model replay this stream, so
 * architectural state is always exact while timing is modelled.
 */

#ifndef ICICLE_ISA_EXECUTOR_HH
#define ICICLE_ISA_EXECUTOR_HH

#include <memory>
#include <vector>

#include "isa/encoding.hh"
#include "isa/program.hh"

namespace icicle
{

/**
 * Interface the executor uses for Zicsr instructions, so a core model
 * can expose its live CSR file (performance counters) to software
 * running inside the simulation. Matches the paper's in-band
 * perf-harness path.
 */
class CsrBackend
{
  public:
    virtual ~CsrBackend() = default;
    virtual u64 readCsr(u32 csr) = 0;
    virtual void writeCsr(u32 csr, u64 value) = 0;
};

/** What the executor reports about one retired instruction. */
struct Retired
{
    Addr pc = 0;
    DecodedInst inst;
    /** Architectural next PC (branch/jump target or pc+4). */
    Addr nextPc = 0;
    /** For branches: taken? */
    bool taken = false;
    /** For loads/stores: effective address. */
    Addr memAddr = 0;
    /** For loads/stores: access size in bytes. */
    u8 memSize = 0;
    /** Did this instruction end the program? */
    bool halted = false;

    bool isBranch() const { return classOf(inst.op) == InstClass::Branch; }
    bool isLoad() const { return classOf(inst.op) == InstClass::Load; }
    bool isStore() const { return classOf(inst.op) == InstClass::Store; }
    bool
    isControlFlow() const
    {
        InstClass c = classOf(inst.op);
        return c == InstClass::Branch || c == InstClass::Jump ||
               c == InstClass::JumpReg;
    }
};

/**
 * Executes a Program against a flat physical memory. Little-endian,
 * x0 hard-wired to zero, ECALL halts with the exit code in a0.
 *
 * The memory is a private anonymous mapping of Program::memSize bytes:
 * the kernel zeroes it and backs a page only when it is first written,
 * so an executor's resident cost is the pages its program touches.
 * The executor owns the mapping and is move-only.
 */
class Executor
{
  public:
    explicit Executor(const Program &program);

    Executor(Executor &&) = default;
    Executor &operator=(Executor &&) = default;

    /** Attach a CSR backend (e.g. a core's CSR file). May be null. */
    void setCsrBackend(CsrBackend *backend) { csrBackend = backend; }

    /** Execute and retire exactly one instruction. */
    Retired step();

    /** Run to completion (or maxInsts); returns instructions retired. */
    u64 run(u64 maxInsts = ~0ull);

    bool halted() const { return isHalted; }
    /** Value of a0 at the halting ECALL. */
    u64 exitCode() const { return haltCode; }
    Addr pc() const { return pcReg; }
    u64 instsRetired() const { return retiredCount; }

    u64 reg(u8 index) const { return regs[index]; }
    void setReg(u8 index, u64 value);

    /** Direct memory access, for loading inputs / checking outputs. */
    u64 loadMem(Addr addr, u8 size) const;
    void storeMem(Addr addr, u64 value, u8 size);

  private:
    /** Unmaps the memory image. */
    struct Unmap
    {
        u64 bytes;
        void operator()(u8 *image) const;
    };

    u32 fetchRaw(Addr addr) const;
    const DecodedInst &fetchDecoded(Addr addr);

    /** Layout: the code segment's base and the memory size. */
    Addr codeBase = 0;
    u64 memSize = 0;
    /** The code words, decoded on first fetch into decodeCache. */
    std::vector<u32> code;
    std::unique_ptr<u8[], Unmap> mem;
    std::vector<DecodedInst> decodeCache;
    std::vector<bool> decodeCacheValid;
    u64 regs[32] = {};
    Addr pcReg = 0;
    bool isHalted = false;
    u64 haltCode = 0;
    u64 retiredCount = 0;
    CsrBackend *csrBackend = nullptr;
};

} // namespace icicle

#endif // ICICLE_ISA_EXECUTOR_HH
