#include "isa/executor.hh"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace icicle
{

void
Executor::Unmap::operator()(u8 *image) const
{
    munmap(image, bytes);
}

Executor::Executor(const Program &program)
    : codeBase(program.codeBase), memSize(program.memSize),
      code(program.code)
{
    if (codeBase + program.codeBytes() > memSize)
        fatal("code segment does not fit in memory");
    if (program.dataBase + program.data.size() > memSize)
        fatal("data segment does not fit in memory");

    // No memset: a fresh anonymous mapping reads as zeros, and only
    // the pages written below or by the program become resident.
    void *image = mmap(nullptr, memSize, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (image == MAP_FAILED) {
        fatal("cannot map a ", memSize, "-byte memory image: ",
              std::strerror(errno));
    }
    mem = std::unique_ptr<u8[], Unmap>(static_cast<u8 *>(image),
                                       Unmap{memSize});
    // Keep first touch at base-page size where transparent huge pages
    // are on for every mapping: the code, data and stack pages would
    // otherwise each fault in 2 MiB. Advice only; a kernel without
    // THP rejects it and has nothing to turn off.
    madvise(image, memSize, MADV_NOHUGEPAGE);

    if (!code.empty())
        std::memcpy(&mem[codeBase], code.data(), program.codeBytes());
    if (!program.data.empty()) {
        std::memcpy(&mem[program.dataBase], program.data.data(),
                    program.data.size());
    }

    decodeCache.resize(code.size());
    decodeCacheValid.resize(code.size(), false);

    pcReg = program.entry;
    // ABI-style environment: stack at the top of memory.
    regs[reg::sp] = memSize - 64;
}

void
Executor::setReg(u8 index, u64 value)
{
    ICICLE_ASSERT(index < 32, "register index out of range");
    if (index != 0)
        regs[index] = value;
}

u32
Executor::fetchRaw(Addr addr) const
{
    if (addr >= memSize || 4 > memSize - addr)
        fatal("instruction fetch out of bounds at 0x", std::hex, addr);
    u32 word;
    std::memcpy(&word, &mem[addr], 4);
    return word;
}

const DecodedInst &
Executor::fetchDecoded(Addr addr)
{
    if (addr >= codeBase && addr < codeBase + code.size() * 4 &&
        (addr & 3) == 0) {
        const u64 index = (addr - codeBase) / 4;
        if (!decodeCacheValid[index]) {
            decodeCache[index] = decode(code[index]);
            decodeCacheValid[index] = true;
        }
        return decodeCache[index];
    }
    // Fetch outside the static code image (should not happen in
    // well-formed programs, but keep it functional).
    static thread_local DecodedInst scratch;
    scratch = decode(fetchRaw(addr));
    return scratch;
}

u64
Executor::loadMem(Addr addr, u8 size) const
{
    if (addr >= memSize || size > memSize - addr)
        fatal("load out of bounds at 0x", std::hex, addr);
    u64 value = 0;
    std::memcpy(&value, &mem[addr], size);
    return value;
}

void
Executor::storeMem(Addr addr, u64 value, u8 size)
{
    if (addr >= memSize || size > memSize - addr)
        fatal("store out of bounds at 0x", std::hex, addr);
    std::memcpy(&mem[addr], &value, size);
}

namespace
{

i64
sext(u64 value, unsigned width)
{
    const u64 sign = 1ull << (width - 1);
    return static_cast<i64>((value ^ sign) - sign);
}

u64
sext32(u64 value)
{
    return static_cast<u64>(static_cast<i64>(static_cast<i32>(value)));
}

} // namespace

Retired
Executor::step()
{
    ICICLE_ASSERT(!isHalted, "step() after halt");

    Retired result;
    result.pc = pcReg;
    const DecodedInst &d = fetchDecoded(pcReg);
    result.inst = d;
    Addr next = pcReg + 4;

    const u64 rs1 = regs[d.rs1];
    const u64 rs2 = regs[d.rs2];
    u64 rd = 0;
    bool write_rd = writesRd(d.op);

    switch (d.op) {
      case Op::Lui: rd = static_cast<u64>(d.imm); break;
      case Op::Auipc: rd = pcReg + static_cast<u64>(d.imm); break;
      case Op::Jal:
        rd = next;
        next = pcReg + static_cast<u64>(d.imm);
        break;
      case Op::Jalr:
        rd = next;
        next = (rs1 + static_cast<u64>(d.imm)) & ~1ull;
        break;

      case Op::Beq: result.taken = rs1 == rs2; goto branch;
      case Op::Bne: result.taken = rs1 != rs2; goto branch;
      case Op::Blt:
        result.taken = static_cast<i64>(rs1) < static_cast<i64>(rs2);
        goto branch;
      case Op::Bge:
        result.taken = static_cast<i64>(rs1) >= static_cast<i64>(rs2);
        goto branch;
      case Op::Bltu: result.taken = rs1 < rs2; goto branch;
      case Op::Bgeu: result.taken = rs1 >= rs2; goto branch;
      branch:
        if (result.taken)
            next = pcReg + static_cast<u64>(d.imm);
        break;

      case Op::Lb:
        result.memAddr = rs1 + static_cast<u64>(d.imm);
        result.memSize = 1;
        rd = static_cast<u64>(sext(loadMem(result.memAddr, 1), 8));
        break;
      case Op::Lbu:
        result.memAddr = rs1 + static_cast<u64>(d.imm);
        result.memSize = 1;
        rd = loadMem(result.memAddr, 1);
        break;
      case Op::Lh:
        result.memAddr = rs1 + static_cast<u64>(d.imm);
        result.memSize = 2;
        rd = static_cast<u64>(sext(loadMem(result.memAddr, 2), 16));
        break;
      case Op::Lhu:
        result.memAddr = rs1 + static_cast<u64>(d.imm);
        result.memSize = 2;
        rd = loadMem(result.memAddr, 2);
        break;
      case Op::Lw:
        result.memAddr = rs1 + static_cast<u64>(d.imm);
        result.memSize = 4;
        rd = static_cast<u64>(sext(loadMem(result.memAddr, 4), 32));
        break;
      case Op::Lwu:
        result.memAddr = rs1 + static_cast<u64>(d.imm);
        result.memSize = 4;
        rd = loadMem(result.memAddr, 4);
        break;
      case Op::Ld:
        result.memAddr = rs1 + static_cast<u64>(d.imm);
        result.memSize = 8;
        rd = loadMem(result.memAddr, 8);
        break;

      case Op::Sb:
      case Op::Sh:
      case Op::Sw:
      case Op::Sd: {
        const u8 size = d.op == Op::Sb   ? 1
                        : d.op == Op::Sh ? 2
                        : d.op == Op::Sw ? 4
                                         : 8;
        result.memAddr = rs1 + static_cast<u64>(d.imm);
        result.memSize = size;
        storeMem(result.memAddr, rs2, size);
        break;
      }

      case Op::Addi: rd = rs1 + static_cast<u64>(d.imm); break;
      case Op::Slti:
        rd = static_cast<i64>(rs1) < d.imm ? 1 : 0;
        break;
      case Op::Sltiu: rd = rs1 < static_cast<u64>(d.imm) ? 1 : 0; break;
      case Op::Xori: rd = rs1 ^ static_cast<u64>(d.imm); break;
      case Op::Ori: rd = rs1 | static_cast<u64>(d.imm); break;
      case Op::Andi: rd = rs1 & static_cast<u64>(d.imm); break;
      case Op::Slli: rd = rs1 << (d.imm & 63); break;
      case Op::Srli: rd = rs1 >> (d.imm & 63); break;
      case Op::Srai:
        rd = static_cast<u64>(static_cast<i64>(rs1) >> (d.imm & 63));
        break;

      case Op::Addiw: rd = sext32(rs1 + static_cast<u64>(d.imm)); break;
      case Op::Slliw: rd = sext32(rs1 << (d.imm & 31)); break;
      case Op::Srliw:
        rd = sext32(static_cast<u32>(rs1) >> (d.imm & 31));
        break;
      case Op::Sraiw:
        rd = sext32(static_cast<u64>(
            static_cast<i32>(rs1) >> (d.imm & 31)));
        break;

      case Op::Add: rd = rs1 + rs2; break;
      case Op::Sub: rd = rs1 - rs2; break;
      case Op::Sll: rd = rs1 << (rs2 & 63); break;
      case Op::Slt:
        rd = static_cast<i64>(rs1) < static_cast<i64>(rs2) ? 1 : 0;
        break;
      case Op::Sltu: rd = rs1 < rs2 ? 1 : 0; break;
      case Op::Xor: rd = rs1 ^ rs2; break;
      case Op::Srl: rd = rs1 >> (rs2 & 63); break;
      case Op::Sra:
        rd = static_cast<u64>(static_cast<i64>(rs1) >> (rs2 & 63));
        break;
      case Op::Or: rd = rs1 | rs2; break;
      case Op::And: rd = rs1 & rs2; break;

      case Op::Addw: rd = sext32(rs1 + rs2); break;
      case Op::Subw: rd = sext32(rs1 - rs2); break;
      case Op::Sllw: rd = sext32(rs1 << (rs2 & 31)); break;
      case Op::Srlw: rd = sext32(static_cast<u32>(rs1) >> (rs2 & 31)); break;
      case Op::Sraw:
        rd = sext32(
            static_cast<u64>(static_cast<i32>(rs1) >> (rs2 & 31)));
        break;

      case Op::Mul: rd = rs1 * rs2; break;
      case Op::Mulh:
        rd = static_cast<u64>(
            (static_cast<__int128>(static_cast<i64>(rs1)) *
             static_cast<__int128>(static_cast<i64>(rs2))) >> 64);
        break;
      case Op::Mulhsu:
        rd = static_cast<u64>(
            (static_cast<__int128>(static_cast<i64>(rs1)) *
             static_cast<unsigned __int128>(rs2)) >> 64);
        break;
      case Op::Mulhu:
        rd = static_cast<u64>(
            (static_cast<unsigned __int128>(rs1) *
             static_cast<unsigned __int128>(rs2)) >> 64);
        break;
      case Op::Div:
        if (rs2 == 0)
            rd = ~0ull;
        else if (static_cast<i64>(rs1) == INT64_MIN &&
                 static_cast<i64>(rs2) == -1)
            rd = rs1;
        else
            rd = static_cast<u64>(static_cast<i64>(rs1) /
                                  static_cast<i64>(rs2));
        break;
      case Op::Divu: rd = rs2 == 0 ? ~0ull : rs1 / rs2; break;
      case Op::Rem:
        if (rs2 == 0)
            rd = rs1;
        else if (static_cast<i64>(rs1) == INT64_MIN &&
                 static_cast<i64>(rs2) == -1)
            rd = 0;
        else
            rd = static_cast<u64>(static_cast<i64>(rs1) %
                                  static_cast<i64>(rs2));
        break;
      case Op::Remu: rd = rs2 == 0 ? rs1 : rs1 % rs2; break;

      case Op::Mulw: rd = sext32(rs1 * rs2); break;
      case Op::Divw: {
        const i32 a = static_cast<i32>(rs1);
        const i32 b = static_cast<i32>(rs2);
        if (b == 0)
            rd = ~0ull;
        else if (a == INT32_MIN && b == -1)
            rd = sext32(static_cast<u64>(static_cast<u32>(a)));
        else
            rd = sext32(static_cast<u64>(static_cast<u32>(a / b)));
        break;
      }
      case Op::Divuw: {
        const u32 a = static_cast<u32>(rs1);
        const u32 b = static_cast<u32>(rs2);
        rd = b == 0 ? ~0ull : sext32(a / b);
        break;
      }
      case Op::Remw: {
        const i32 a = static_cast<i32>(rs1);
        const i32 b = static_cast<i32>(rs2);
        if (b == 0)
            rd = sext32(static_cast<u64>(static_cast<u32>(a)));
        else if (a == INT32_MIN && b == -1)
            rd = 0;
        else
            rd = sext32(static_cast<u64>(static_cast<u32>(a % b)));
        break;
      }
      case Op::Remuw: {
        const u32 a = static_cast<u32>(rs1);
        const u32 b = static_cast<u32>(rs2);
        rd = b == 0 ? sext32(a) : sext32(a % b);
        break;
      }

      case Op::Fence:
      case Op::FenceI:
        break;

      case Op::Ecall:
        isHalted = true;
        haltCode = regs[reg::a0];
        result.halted = true;
        break;
      case Op::Ebreak:
        isHalted = true;
        haltCode = 1;
        result.halted = true;
        break;

      case Op::Csrrw:
      case Op::Csrrs:
      case Op::Csrrc:
      case Op::Csrrwi: {
        const u32 csr = static_cast<u32>(d.imm);
        const u64 old = csrBackend ? csrBackend->readCsr(csr) : 0;
        u64 new_value = old;
        const u64 operand =
            d.op == Op::Csrrwi ? d.rs1 : rs1;
        switch (d.op) {
          case Op::Csrrw:
          case Op::Csrrwi:
            new_value = operand;
            break;
          case Op::Csrrs: new_value = old | operand; break;
          case Op::Csrrc: new_value = old & ~operand; break;
          default: break;
        }
        if (csrBackend &&
            (d.op == Op::Csrrw || d.op == Op::Csrrwi || d.rs1 != 0)) {
            csrBackend->writeCsr(csr, new_value);
        }
        rd = old;
        break;
      }
      case Op::Csrrsi:
      case Op::Csrrci: {
        const u32 csr = static_cast<u32>(d.imm);
        const u64 old = csrBackend ? csrBackend->readCsr(csr) : 0;
        const u64 mask = d.rs1;
        if (csrBackend && mask) {
            csrBackend->writeCsr(
                csr, d.op == Op::Csrrsi ? (old | mask) : (old & ~mask));
        }
        rd = old;
        break;
      }

      case Op::Illegal:
        fatal("illegal instruction at 0x", std::hex, pcReg);
      default:
        panic("unhandled op in executor");
    }

    if (write_rd && d.rd != 0)
        regs[d.rd] = rd;

    result.nextPc = next;
    pcReg = next;
    retiredCount++;
    return result;
}

u64
Executor::run(u64 maxInsts)
{
    u64 executed = 0;
    while (!isHalted && executed < maxInsts) {
        step();
        executed++;
    }
    return executed;
}

} // namespace icicle
