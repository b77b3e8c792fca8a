#include "dist/layout.hpp"

#include "support/check.hpp"

namespace catrsm::dist {

Distribution::Distribution(index_t rows, index_t cols)
    : rows_(rows), cols_(cols) {
  CATRSM_CHECK(rows >= 0 && cols >= 0,
               "Distribution: negative matrix shape");
}

std::vector<index_t> Distribution::rows_of_part(int rpart) const {
  std::vector<index_t> out;
  for (index_t i = 0; i < rows(); ++i)
    if (part_of_row(i) == rpart) out.push_back(i);
  return out;
}

std::vector<index_t> Distribution::cols_of_part(int cpart) const {
  std::vector<index_t> out;
  for (index_t j = 0; j < cols(); ++j)
    if (part_of_col(j) == cpart) out.push_back(j);
  return out;
}

std::vector<std::vector<index_t>> Distribution::rows_by_part(
    index_t lo, index_t hi) const {
  std::vector<std::vector<index_t>> out(static_cast<std::size_t>(row_parts()));
  for (index_t i = lo; i < hi; ++i)
    out[static_cast<std::size_t>(part_of_row(i))].push_back(i);
  return out;
}

std::vector<std::vector<index_t>> Distribution::cols_by_part(
    index_t lo, index_t hi) const {
  std::vector<std::vector<index_t>> out(static_cast<std::size_t>(col_parts()));
  for (index_t j = lo; j < hi; ++j)
    out[static_cast<std::size_t>(part_of_col(j))].push_back(j);
  return out;
}

std::pair<index_t, index_t> Distribution::local_shape(int w) const {
  const auto parts = parts_of_world(w);
  if (!parts.has_value()) return {0, 0};
  index_t r = 0, c = 0;
  for (index_t i = 0; i < rows(); ++i)
    if (part_of_row(i) == parts->first) ++r;
  for (index_t j = 0; j < cols(); ++j)
    if (part_of_col(j) == parts->second) ++c;
  return {r, c};
}

BlockCyclicDist::BlockCyclicDist(Face2D face, index_t rows, index_t cols,
                                 index_t br, index_t bc, int rsrc, int csrc)
    : Distribution(rows, cols),
      face_(std::move(face)),
      br_(br),
      bc_(bc),
      rsrc_(rsrc),
      csrc_(csrc) {
  CATRSM_CHECK(br >= 1 && bc >= 1,
               "BlockCyclicDist: block sizes must be positive");
  CATRSM_CHECK(rsrc >= 0 && rsrc < face_.pr() && csrc >= 0 &&
                   csrc < face_.pc(),
               "BlockCyclicDist: source part out of range");
}

int BlockCyclicDist::part_of_row(index_t i) const {
  CATRSM_ASSERT(i >= 0 && i < rows(), "part_of_row: index out of range");
  return static_cast<int>((i / br_ + rsrc_) % face_.pr());
}

int BlockCyclicDist::part_of_col(index_t j) const {
  CATRSM_ASSERT(j >= 0 && j < cols(), "part_of_col: index out of range");
  return static_cast<int>((j / bc_ + csrc_) % face_.pc());
}

int BlockCyclicDist::world_rank_of(int rpart, int cpart) const {
  return face_.comm().world_rank(face_.at(rpart, cpart));
}

std::optional<std::pair<int, int>> BlockCyclicDist::parts_of_world(
    int w) const {
  const int t = face_.comm().index_of_world(w);
  if (t < 0) return std::nullopt;
  return std::pair<int, int>{t % face_.pr(), t / face_.pr()};
}

Cyclic3DDist::Cyclic3DDist(ProcGrid3D grid, index_t rows, index_t cols)
    : Distribution(rows, cols), grid_(std::move(grid)) {}

int Cyclic3DDist::part_of_row(index_t i) const {
  CATRSM_ASSERT(i >= 0 && i < rows(), "part_of_row: index out of range");
  const int p1 = grid_.p1();
  const int x = static_cast<int>(i % p1);
  const int z = static_cast<int>((i / p1) % grid_.p2());
  return x + p1 * z;
}

int Cyclic3DDist::part_of_col(index_t j) const {
  CATRSM_ASSERT(j >= 0 && j < cols(), "part_of_col: index out of range");
  return static_cast<int>(j % grid_.p1());
}

int Cyclic3DDist::world_rank_of(int rpart, int cpart) const {
  const int p1 = grid_.p1();
  return grid_.comm().world_rank(grid_.at(rpart % p1, cpart, rpart / p1));
}

std::optional<std::pair<int, int>> Cyclic3DDist::parts_of_world(int w) const {
  const int t = grid_.comm().index_of_world(w);
  if (t < 0) return std::nullopt;
  const int p1 = grid_.p1();
  const int x = t % p1;
  const int y = (t / p1) % p1;
  const int z = t / (p1 * p1);
  return std::pair<int, int>{x + p1 * z, y};
}

std::shared_ptr<BlockCyclicDist> cyclic_on(const Face2D& face, index_t rows,
                                           index_t cols) {
  return std::make_shared<BlockCyclicDist>(face, rows, cols, 1, 1);
}

std::shared_ptr<BlockCyclicDist> row_cyclic_col_blocked(const Face2D& face,
                                                        index_t rows,
                                                        index_t cols) {
  const index_t bc = std::max<index_t>(ceil_div(cols, face.pc()), 1);
  return std::make_shared<BlockCyclicDist>(face, rows, cols, 1, bc);
}

}  // namespace catrsm::dist
