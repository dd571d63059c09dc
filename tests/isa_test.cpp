// Tests for the reference ISA: opcode metadata, encoding round-trips, ALU
// semantics, the latency model, and the assembler/disassembler.
#include <gtest/gtest.h>

#include <random>

#include "isa/isa.hpp"

namespace ultra::isa {
namespace {

// --- Opcode metadata ---------------------------------------------------------

TEST(Opcode, EveryOpcodeReadsAtMostTwoAndWritesAtMostOne) {
  // The Ultrascalar II datapath depends on this ISA-wide bound (Figure 7).
  for (int i = 0; i < kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    SCOPED_TRACE(OpcodeName(op));
    const int reads = (ReadsRs1(op) ? 1 : 0) + (ReadsRs2(op) ? 1 : 0);
    EXPECT_LE(reads, 2);
    // WritesRd returns a single bool: at most one destination by design.
  }
}

TEST(Opcode, NamesRoundTrip) {
  for (int i = 0; i < kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    EXPECT_EQ(OpcodeFromName(OpcodeName(op)), op);
  }
  EXPECT_EQ(OpcodeFromName("bogus"), Opcode::kCount_);
  EXPECT_EQ(OpcodeFromName(""), Opcode::kCount_);
}

TEST(Opcode, ClassPredicatesAreConsistent) {
  EXPECT_TRUE(IsMemory(Opcode::kLoad));
  EXPECT_TRUE(IsMemory(Opcode::kStore));
  EXPECT_FALSE(IsMemory(Opcode::kAdd));
  EXPECT_TRUE(IsConditionalBranch(Opcode::kBeq));
  EXPECT_FALSE(IsConditionalBranch(Opcode::kJmp));
  EXPECT_TRUE(IsControlFlow(Opcode::kJmp));
  EXPECT_TRUE(IsControlFlow(Opcode::kJal));
  EXPECT_FALSE(IsControlFlow(Opcode::kHalt));
}

TEST(Opcode, StoreReadsTwoRegistersWritesNone) {
  EXPECT_TRUE(ReadsRs1(Opcode::kStore));
  EXPECT_TRUE(ReadsRs2(Opcode::kStore));
  EXPECT_FALSE(WritesRd(Opcode::kStore));
}

TEST(Opcode, LoadReadsOneWritesOne) {
  EXPECT_TRUE(ReadsRs1(Opcode::kLoad));
  EXPECT_FALSE(ReadsRs2(Opcode::kLoad));
  EXPECT_TRUE(WritesRd(Opcode::kLoad));
}

// --- Encoding ----------------------------------------------------------------

TEST(Encoding, RoundTripsAllOpcodesWithRandomFields) {
  std::mt19937 rng(99);
  for (int i = 0; i < kNumOpcodes; ++i) {
    for (int trial = 0; trial < 16; ++trial) {
      Instruction inst;
      inst.op = static_cast<Opcode>(i);
      inst.rd = static_cast<RegId>(rng() % kMaxLogicalRegisters);
      inst.rs1 = static_cast<RegId>(rng() % kMaxLogicalRegisters);
      inst.rs2 = static_cast<RegId>(rng() % kMaxLogicalRegisters);
      inst.imm = static_cast<std::int32_t>(rng());
      const auto decoded = Decode(Encode(inst));
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(*decoded, inst);
    }
  }
}

TEST(Encoding, RejectsBadOpcode) {
  EXPECT_FALSE(Decode(0xff).has_value());
}

TEST(Encoding, RejectsOutOfRangeRegister) {
  Instruction inst = MakeRRR(Opcode::kAdd, 1, 2, 3);
  std::uint64_t word = Encode(inst);
  word |= std::uint64_t{200} << 8;  // rd = 200.
  EXPECT_FALSE(Decode(word).has_value());
}

TEST(Encoding, NegativeImmediateSurvives) {
  const auto inst = MakeRRI(Opcode::kAddi, 1, 2, -12345);
  const auto decoded = Decode(Encode(inst));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->imm, -12345);
}

// --- ALU semantics -----------------------------------------------------------

TEST(Alu, BasicArithmetic) {
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kAdd, 0, 0, 0), 3, 4), 7u);
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kSub, 0, 0, 0), 3, 4), 0xffffffffu);
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kMul, 0, 0, 0), 6, 7), 42u);
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kDiv, 0, 0, 0), 42, 6), 7u);
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kRem, 0, 0, 0), 43, 6), 1u);
}

TEST(Alu, SignedDivisionTruncatesTowardZero) {
  const auto div = MakeRRR(Opcode::kDiv, 0, 0, 0);
  EXPECT_EQ(static_cast<SWord>(AluResult(
                div, static_cast<Word>(-7), static_cast<Word>(2))),
            -3);
  EXPECT_EQ(static_cast<SWord>(AluResult(
                div, static_cast<Word>(7), static_cast<Word>(-2))),
            -3);
}

TEST(Alu, DivisionByZeroYieldsAllOnes) {
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kDiv, 0, 0, 0), 5, 0), ~Word{0});
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kRem, 0, 0, 0), 5, 0), 5u);
}

TEST(Alu, IntMinDividedByMinusOneWraps) {
  const Word int_min = 0x80000000u;
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kDiv, 0, 0, 0), int_min,
                      static_cast<Word>(-1)),
            int_min);
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kRem, 0, 0, 0), int_min,
                      static_cast<Word>(-1)),
            0u);
}

TEST(Alu, ShiftsMaskTheShiftAmount) {
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kSll, 0, 0, 0), 1, 33), 2u);
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kSrl, 0, 0, 0), 0x80000000u, 31),
            1u);
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kSra, 0, 0, 0), 0x80000000u, 31),
            0xffffffffu);
}

TEST(Alu, SetLessThanSignedVsUnsigned) {
  const Word minus_one = static_cast<Word>(-1);
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kSlt, 0, 0, 0), minus_one, 1), 1u);
  EXPECT_EQ(AluResult(MakeRRR(Opcode::kSltu, 0, 0, 0), minus_one, 1), 0u);
}

TEST(Alu, ImmediateForms) {
  EXPECT_EQ(AluResult(MakeRRI(Opcode::kAddi, 0, 0, -1), 5, 0), 4u);
  EXPECT_EQ(AluResult(MakeRRI(Opcode::kSlli, 0, 0, 4), 3, 0), 48u);
  EXPECT_EQ(AluResult(MakeRRI(Opcode::kLui, 0, 0, 0x1234), 0, 0),
            0x12340000u);
  EXPECT_EQ(AluResult(MakeLi(0, -7), 0, 0), static_cast<Word>(-7));
}

TEST(Alu, BranchPredicates) {
  EXPECT_TRUE(BranchTaken(MakeBranch(Opcode::kBeq, 0, 0, 0), 5, 5));
  EXPECT_FALSE(BranchTaken(MakeBranch(Opcode::kBeq, 0, 0, 0), 5, 6));
  EXPECT_TRUE(BranchTaken(MakeBranch(Opcode::kBne, 0, 0, 0), 5, 6));
  EXPECT_TRUE(BranchTaken(MakeBranch(Opcode::kBlt, 0, 0, 0),
                          static_cast<Word>(-1), 0));
  EXPECT_FALSE(BranchTaken(MakeBranch(Opcode::kBge, 0, 0, 0),
                           static_cast<Word>(-1), 0));
  EXPECT_TRUE(BranchTaken(MakeJmp(7), 0, 0));
}

TEST(Alu, EffectiveAddress) {
  EXPECT_EQ(EffectiveAddress(MakeLoad(1, 2, 8), 100), 108u);
  EXPECT_EQ(EffectiveAddress(MakeLoad(1, 2, -4), 100), 96u);
}

// --- Latency model -----------------------------------------------------------

TEST(Latency, Figure3Defaults) {
  const LatencyModel lat;
  EXPECT_EQ(lat.Cycles(Opcode::kAdd), 1);
  EXPECT_EQ(lat.Cycles(Opcode::kMul), 3);
  EXPECT_EQ(lat.Cycles(Opcode::kDiv), 10);
  EXPECT_EQ(lat.Cycles(Opcode::kRem), 10);
  EXPECT_EQ(lat.Cycles(Opcode::kBeq), 1);
  EXPECT_EQ(lat.Cycles(Opcode::kNop), 1);
}

TEST(Latency, Overridable) {
  LatencyModel lat;
  lat.Set(OpClass::kIntMul, 5);
  EXPECT_EQ(lat.Cycles(Opcode::kMul), 5);
  EXPECT_EQ(lat.Cycles(Opcode::kAdd), 1);
}

// --- Assembler ---------------------------------------------------------------

TEST(Assembler, RoundTripsThroughDisassembler) {
  const char* source = R"(
    li r1, 10
    addi r2, r1, -3
    mul r3, r1, r2
    ld r4, 8(r3)
    st r4, -4(r1)
    beq r1, r2, 0
    jmp 1
    jal r31, 2
    halt
  )";
  const auto program = AssembleOrDie(source);
  ASSERT_EQ(program.size(), 9u);
  // Re-assembling each disassembled line must reproduce the instruction.
  for (const auto& inst : program.code()) {
    const auto again = AssembleOrDie(ToString(inst));
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again.at(0), inst) << ToString(inst);
  }
}

TEST(Assembler, ResolvesForwardAndBackwardLabels) {
  const auto program = AssembleOrDie(R"(
    top:
    addi r1, r1, 1
    beq r1, r2, done
    jmp top
    done:
    halt
  )");
  EXPECT_EQ(program.at(1).imm, 3);  // done.
  EXPECT_EQ(program.at(2).imm, 0);  // top.
}

TEST(Assembler, LabelOnSameLineAsInstruction) {
  const auto program = AssembleOrDie("start: addi r1, r1, 1\n jmp start\n");
  EXPECT_EQ(program.at(1).imm, 0);
  EXPECT_EQ(program.labels().at("start"), 0u);
}

TEST(Assembler, HexAndNegativeImmediates) {
  const auto program = AssembleOrDie("li r1, 0x10\nli r2, -0x10\nhalt\n");
  EXPECT_EQ(program.at(0).imm, 16);
  EXPECT_EQ(program.at(1).imm, -16);
}

TEST(Assembler, WordDirectiveFillsInitialMemory) {
  const auto program = AssembleOrDie(".word 0x10 42\n.word 20 0xff\nhalt\n");
  EXPECT_EQ(program.initial_memory().at(0x10), 42u);
  EXPECT_EQ(program.initial_memory().at(20), 0xffu);
}

TEST(Assembler, CommentsAndBlankLinesIgnored) {
  const auto program = AssembleOrDie(R"(
    # full-line comment

    li r1, 5   # trailing comment
    halt
  )");
  EXPECT_EQ(program.size(), 2u);
}

struct BadSource {
  const char* name;
  const char* source;
};

// Without a printer gtest shows the raw bytes of the two pointers, which the
// loader's address randomisation changes on every run, so the discovered
// ctest names would differ from one build to the next.
void PrintTo(const BadSource& bad, std::ostream* os) { *os << bad.name; }

class AssemblerErrors : public testing::TestWithParam<BadSource> {};

TEST_P(AssemblerErrors, ReportsError) {
  const auto result = Assemble(GetParam().source);
  ASSERT_TRUE(std::holds_alternative<AssemblyError>(result))
      << GetParam().source;
  EXPECT_GT(std::get<AssemblyError>(result).line, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AssemblerErrors,
    testing::Values(
        BadSource{"unknown_mnemonic", "frobnicate r1, r2, r3\n"},
        BadSource{"bad_register", "add r1, r99, r3\n"},
        BadSource{"register_out_of_range", "add r64, r0, r0\n"},
        BadSource{"missing_operand", "add r1, r2\n"},
        BadSource{"extra_operand", "halt r1\n"},
        BadSource{"undefined_label", "jmp nowhere\n"},
        BadSource{"bad_immediate", "li r1, banana\n"},
        BadSource{"bad_word_directive", ".word 1\n"},
        BadSource{"empty_label", ": add r1, r2, r3\n"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Assembler, AssembleOrDieThrowsOnError) {
  EXPECT_THROW(AssembleOrDie("bogus\n"), std::runtime_error);
}

TEST(AssemblerDiagnostics, ErrorsCarryLineAndToken) {
  const auto result = Assemble("li r1, 1\nadd r1, banana, r3\nhalt\n");
  const auto& err = std::get<AssemblyError>(result);
  EXPECT_EQ(err.line, 2);
  EXPECT_EQ(err.token, "banana");
  EXPECT_NE(err.message.find("register"), std::string::npos);
  EXPECT_NE(err.ToString().find("line 2"), std::string::npos);
  EXPECT_NE(err.ToString().find("'banana'"), std::string::npos);
}

TEST(AssemblerDiagnostics, UnknownMnemonicNamesTheToken) {
  // Copy out of the temporary variant: std::get on an rvalue returns a
  // reference into the expiring object, so a const& here would dangle.
  const auto err =
      std::get<AssemblyError>(Assemble("nop\nfrobnicate r1\n"));
  EXPECT_EQ(err.line, 2);
  EXPECT_EQ(err.token, "frobnicate");
}

TEST(AssemblerDiagnostics, BadImmediateNamesTheToken) {
  const auto err = std::get<AssemblyError>(Assemble("li r1, twelve\n"));
  EXPECT_EQ(err.line, 1);
  EXPECT_EQ(err.token, "twelve");
  EXPECT_NE(err.message.find("immediate"), std::string::npos);
}

TEST(AssemblerDiagnostics, UndefinedLabelNamesTheToken) {
  const auto err =
      std::get<AssemblyError>(Assemble("jmp nowhere\nhalt\n"));
  EXPECT_EQ(err.token, "nowhere");
  EXPECT_NE(err.message.find("undefined label"), std::string::npos);
}

TEST(AssemblerDiagnostics, RegistersAreValidatedAgainstNumRegs) {
  // r12 is encodable, but an 8-register machine must reject it.
  const auto result = Assemble("add r1, r2, r12\nhalt\n", /*num_regs=*/8);
  const auto& err = std::get<AssemblyError>(result);
  EXPECT_EQ(err.line, 1);
  EXPECT_EQ(err.token, "r12");
  EXPECT_NE(err.message.find("out of range"), std::string::npos);
  EXPECT_NE(err.message.find("r0..r7"), std::string::npos);
  // The same source assembles for a machine with enough registers.
  EXPECT_TRUE(std::holds_alternative<Program>(
      Assemble("add r1, r2, r12\nhalt\n", /*num_regs=*/16)));
}

TEST(AssemblerDiagnostics, NumRegsIsClampedToTheEncodableMaximum) {
  const auto result = Assemble("add r1, r2, r200\nhalt\n", /*num_regs=*/500);
  const auto& err = std::get<AssemblyError>(result);
  EXPECT_EQ(err.token, "r200");
  EXPECT_NE(err.message.find("out of range"), std::string::npos);
}

TEST(Program, DisassembleListsLabels) {
  const auto program = AssembleOrDie("top: addi r1, r1, 1\njmp top\nhalt\n");
  const std::string listing = program.Disassemble();
  EXPECT_NE(listing.find("top:"), std::string::npos);
  EXPECT_NE(listing.find("jmp 0"), std::string::npos);
}

}  // namespace
}  // namespace ultra::isa
