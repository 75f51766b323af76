//===-- core/ModelIO.cpp - Model persistence ------------------------------===//

#include "core/ModelIO.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <system_error>

using namespace fupermod;

namespace {

std::unique_ptr<Model> readFailed(std::string *Err, const std::string &Why) {
  if (Err)
    *Err = Why;
  return nullptr;
}

/// True when \p LS holds nothing but whitespace past its read position.
bool atEnd(std::istringstream &LS) {
  std::string Extra;
  return !(LS >> Extra);
}

/// Parses a point count: decimal digits only (no sign, fraction or
/// exponent) that fit a size_t.
bool parseCount(const std::string &Token, std::size_t &Out) {
  const char *End = Token.data() + Token.size();
  auto [Ptr, Ec] = std::from_chars(Token.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

} // namespace

bool fupermod::writeModel(std::ostream &OS, const Model &M) {
  // 17 significant digits round-trip every double, the limit included.
  OS.precision(17);
  OS << "# fupermod model\n";
  OS << "kind " << M.kind() << '\n';
  if (std::isfinite(M.feasibleLimit()))
    OS << "limit " << M.feasibleLimit() << '\n';
  OS << "points " << M.points().size() << '\n';
  const std::vector<double> &Weights = M.weights();
  for (std::size_t I = 0; I < M.points().size(); ++I) {
    const Point &P = M.points()[I];
    OS << P.Units << ' ' << P.Time << ' ' << P.Reps << ' '
       << P.ConfidenceInterval;
    // The weight column is emitted only when staleness decay (or a
    // merge) moved the weight off its initial value, so undecayed models
    // keep the historical four-column rows bit for bit.
    if (I < Weights.size() && Weights[I] != static_cast<double>(P.Reps))
      OS << ' ' << Weights[I];
    OS << '\n';
  }
  return static_cast<bool>(OS);
}

std::unique_ptr<Model> fupermod::readModel(std::istream &IS,
                                           std::string *Err) {
  std::string Line;
  std::string Kind;
  std::size_t Count = 0;
  bool HaveKind = false, HavePoints = false;
  double Limit = std::numeric_limits<double>::infinity();
  std::size_t LineNo = 0;

  auto LineFailed = [&](const std::string &Why) {
    return readFailed(Err, "line " + std::to_string(LineNo) + ": " + Why);
  };

  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Key;
    LS >> Key;
    if (Key == "kind") {
      if (!(LS >> Kind) || !atEnd(LS))
        return LineFailed("expected 'kind <name>'");
      HaveKind = true;
    } else if (Key == "limit") {
      if (!(LS >> Limit) || !atEnd(LS) || !std::isfinite(Limit) ||
          Limit <= 0.0)
        return LineFailed("expected 'limit <positive size>'");
    } else if (Key == "points") {
      std::string Token;
      if (!(LS >> Token) || !atEnd(LS) || !parseCount(Token, Count))
        return LineFailed("expected 'points <count>' with a non-negative "
                          "integer count");
      HavePoints = true;
      break;
    } else {
      return LineFailed("unknown key '" + Key + "'");
    }
  }
  if (!HaveKind)
    return readFailed(Err, "missing 'kind' header");
  if (!HavePoints)
    return readFailed(Err, "missing 'points' header");

  std::string KindErr;
  std::unique_ptr<Model> M = makeModel(Kind, &KindErr);
  if (!M)
    return readFailed(Err, KindErr);
  // Storage grows with the lines actually read, never with the declared
  // count: a count beyond the remaining input fails as truncated.
  std::vector<double> Weights;
  for (std::size_t I = 0; I < Count; ++I) {
    if (!std::getline(IS, Line))
      return readFailed(Err, "truncated: expected " + std::to_string(Count) +
                                 " points, got " + std::to_string(I));
    ++LineNo;
    std::istringstream LS(Line);
    Point P;
    if (!(LS >> P.Units >> P.Time >> P.Reps >> P.ConfidenceInterval))
      return LineFailed("malformed point (expected 'units time reps ci "
                        "[weight]')");
    if (P.Units <= 0.0 || P.Time <= 0.0 || P.Reps <= 0)
      return LineFailed("non-positive units, time, or reps");
    double W = static_cast<double>(P.Reps);
    if (LS >> W) {
      if (W <= 0.0)
        return LineFailed("non-positive point weight");
    }
    LS.clear();
    if (!atEnd(LS))
      return LineFailed("malformed point (expected 'units time reps ci "
                        "[weight]')");
    Weights.push_back(W);
    M->update(P);
  }
  if (std::isfinite(Limit)) {
    Point Fail;
    Fail.Units = Limit;
    Fail.Reps = 0;
    Fail.Time = std::numeric_limits<double>::infinity();
    M->update(Fail);
  }
  // Saved points are pre-merged (distinct sizes), so the replay stores
  // them one-to-one and the saved weights map straight onto them.
  if (Weights.size() == M->points().size())
    M->setWeights(Weights);
  if (Err)
    Err->clear();
  return M;
}

bool fupermod::saveModel(const std::string &Path, const Model &M) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  return writeModel(OS, M);
}

std::unique_ptr<Model> fupermod::loadModel(const std::string &Path,
                                           std::string *Err) {
  std::ifstream IS(Path);
  if (!IS)
    return readFailed(Err, Path + ": cannot open file");
  std::string ReadErr;
  std::unique_ptr<Model> M = readModel(IS, &ReadErr);
  if (!M)
    return readFailed(Err, Path + ": " + ReadErr);
  if (Err)
    Err->clear();
  return M;
}

bool fupermod::writeDist(std::ostream &OS, const Dist &D) {
  OS << "# fupermod dist\n";
  OS << "total " << D.Total << '\n';
  OS << "parts " << D.Parts.size() << '\n';
  OS.precision(17);
  for (std::size_t I = 0; I < D.Parts.size(); ++I)
    OS << I << ' ' << D.Parts[I].Units << ' ' << D.Parts[I].PredictedTime
       << '\n';
  return static_cast<bool>(OS);
}

bool fupermod::readDist(std::istream &IS, Dist &Out) {
  std::string Line;
  Out = Dist();
  std::size_t Count = 0;
  bool HaveTotal = false, HaveParts = false;
  while (std::getline(IS, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Key;
    LS >> Key;
    if (Key == "total") {
      LS >> Out.Total;
      HaveTotal = true;
    } else if (Key == "parts") {
      LS >> Count;
      HaveParts = true;
      break;
    } else {
      return false;
    }
  }
  if (!HaveTotal || !HaveParts)
    return false;
  Out.Parts.resize(Count);
  for (std::size_t I = 0; I < Count; ++I) {
    if (!std::getline(IS, Line))
      return false;
    std::istringstream LS(Line);
    std::size_t Rank;
    Part P;
    if (!(LS >> Rank >> P.Units >> P.PredictedTime) || Rank != I)
      return false;
    Out.Parts[I] = P;
  }
  return true;
}
